(* Telemetry layer: registry semantics, probe determinism, the
   no-perturbation guarantee (telemetry off/on changes no routing
   field), exporter round-trips, the profiler report and the pool's
   per-domain breakdown. *)

module Rng = Bgp_engine.Rng
module Pool = Bgp_engine.Pool
module Graph = Bgp_topology.Graph
module Topology = Bgp_topology.Topology
module Degree_dist = Bgp_topology.Degree_dist
module As_topology = Bgp_topology.As_topology
module Config = Bgp_proto.Config
module Mrai = Bgp_core.Mrai_controller
module Network = Bgp_netsim.Network
module Runner = Bgp_netsim.Runner
module Telemetry = Bgp_netsim.Telemetry
module Profile = Bgp_engine.Profile
module J = Bgp_engine.Json_lite

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* Option-valued lookups over parsed documents, so a missing or mistyped
   member fails the check that asked for it. *)
let member key = function J.Obj o -> J.field_opt o key | _ -> None
let to_str = function J.Str s -> Some s | _ -> None
let to_float = function J.Num s -> float_of_string_opt s | _ -> None
let to_list = function J.Arr l -> Some l | _ -> None

let fixed_topo n edges =
  let g = Graph.create n in
  List.iter (fun (u, v) -> Graph.add_edge g u v) edges;
  Topology.of_graph (Rng.create 99) g

let scenario_of ?(telemetry = None) ?(scheme = Mrai.Static 1.25) ?(failure = Runner.Fraction 0.1)
    ?sharding ?(seed = 7) topo =
  let config = Config.(with_mrai scheme default) in
  let net = { (Network.config_default config) with Network.telemetry } in
  Runner.scenario ~net ~failure ~seed ?sharding topo

let flat n = Runner.Flat { spec = Degree_dist.skewed_70_30; n }
let tele_05 = Some (Telemetry.config ~probe_interval:0.5 ())

let counter report name =
  match
    List.find_opt (fun (n, _, _) -> n = name) report.Telemetry.counters
  with
  | Some (_, _, v) -> v
  | None -> Alcotest.failf "counter %s missing from report" name

(* --- Config and registry -------------------------------------------------- *)

let test_config_validation () =
  let c = Telemetry.config () in
  checkf "default interval" 0.5 c.Telemetry.probe_interval;
  checkb "default: no warmup probes" false c.Telemetry.probe_warmup;
  checki "default tick cap" 4096 c.Telemetry.max_ticks;
  Alcotest.check_raises "zero interval rejected"
    (Invalid_argument "Telemetry.config: probe_interval must be > 0") (fun () ->
      ignore (Telemetry.config ~probe_interval:0.0 ()));
  Alcotest.check_raises "zero cap rejected"
    (Invalid_argument "Telemetry.config: max_ticks must be > 0") (fun () ->
      ignore (Telemetry.config ~max_ticks:0 ()))

let test_registry () =
  let t = Telemetry.create (Telemetry.config ()) in
  let hits = ref 0 in
  Telemetry.register t ~name:"b.count" ~kind:Telemetry.Counter (fun () ->
      incr hits;
      42.0);
  Telemetry.register t ~name:"a.gauge" ~kind:Telemetry.Gauge (fun () -> 7.5);
  checki "getters are lazy: no reads yet" 0 !hits;
  (match Telemetry.counters t with
  | [ ("a.gauge", Telemetry.Gauge, g); ("b.count", Telemetry.Counter, c) ] ->
    checkf "gauge value" 7.5 g;
    checkf "counter value" 42.0 c
  | l -> Alcotest.failf "unexpected snapshot (%d entries, or unsorted)" (List.length l));
  checki "snapshot read each getter once" 1 !hits;
  checkb "counter_value hit" true (Telemetry.counter_value t "b.count" = Some 42.0);
  checkb "counter_value miss" true (Telemetry.counter_value t "nope" = None);
  Alcotest.check_raises "duplicate name rejected"
    (Invalid_argument "Telemetry.register: duplicate metric \"b.count\"") (fun () ->
      Telemetry.register t ~name:"b.count" ~kind:Telemetry.Counter (fun () -> 0.0))

let test_tick_cap () =
  let t = Telemetry.create (Telemetry.config ~max_ticks:3 ()) in
  for i = 1 to 5 do
    Telemetry.record_tick t ~time:(float_of_int i) [||]
  done;
  checki "capped" 3 (Telemetry.ticks t);
  checki "excess counted" 2 (Telemetry.dropped_ticks t);
  let r = Telemetry.report t in
  checki "report sees cap" 3 r.Telemetry.probes;
  checki "report sees drops" 2 r.Telemetry.dropped

(* --- Counters vs Runner.result totals ------------------------------------- *)

let test_counters_match_result () =
  let r = Runner.run (scenario_of ~telemetry:tele_05 (flat 40)) in
  checkb "converged" true r.Runner.converged;
  let report =
    match r.Runner.report with
    | Some report -> report
    | None -> Alcotest.fail "telemetry enabled but no report"
  in
  (* The registry counters are cumulative over both phases; the result
     splits warm-up from post-failure. *)
  checkf "messages" (float_of_int (r.Runner.messages + r.Runner.warmup_messages))
    (counter report "net.messages_sent");
  checkf "eliminated" (float_of_int r.Runner.eliminated) (counter report "queue.eliminated");
  checkf "max queue depth" (float_of_int r.Runner.max_queue)
    (counter report "queue.max_depth");
  checkf "mrai transitions" (float_of_int r.Runner.mrai_transitions)
    (counter report "mrai.transitions");
  checkb "events counter sane" true (counter report "sched.events" > 0.0);
  checkb "session downs recorded" true (counter report "net.session_downs" > 0.0);
  checkb "probes recorded" true (report.Telemetry.probes > 0);
  (* Every tick carries one row per surviving router: a 10% failure on 40
     routers leaves 36 survivors. *)
  checki "one row per survivor per tick" (report.Telemetry.probes * 36)
    (Array.length report.Telemetry.samples)

(* --- Determinism across job counts ---------------------------------------- *)

let test_probes_deterministic_across_jobs () =
  let scenarios =
    List.init 4 (fun i -> scenario_of ~telemetry:tele_05 ~seed:(11 + i) (flat 30))
  in
  let seq = Pool.map ~jobs:1 Runner.run scenarios in
  let par = Pool.map ~jobs:4 Runner.run scenarios in
  checkb "results (reports included) identical for jobs=1 and jobs=4" true (seq = par);
  List.iter
    (fun r ->
      match r.Runner.report with
      | Some rep -> checkb "probes present" true (rep.Telemetry.probes > 0)
      | None -> Alcotest.fail "missing report")
    seq

(* --- Invariance across shard counts ---------------------------------------- *)

(* Routing-relevant counters only: the scheduler counters (sched
   prefix) legitimately differ across shard counts (per-shard
   schedulers), as does the memory snapshot's per-shard breakdown.  The
   path counters sum over the shards, and every path is built by one
   router, so their totals do not. *)
let routing_counters (rep : Telemetry.report) =
  let prefixes = [ "net."; "router."; "queue."; "mrai."; "damping."; "attr."; "path." ] in
  List.filter
    (fun (n, _, _) -> List.exists (fun p -> String.starts_with ~prefix:p n) prefixes)
    rep.Telemetry.counters

let routing_view (rep : Telemetry.report) =
  ( (rep.Telemetry.probes, rep.Telemetry.dropped, rep.Telemetry.t_fail),
    (rep.Telemetry.progress, rep.Telemetry.samples, routing_counters rep) )

(* Probe ticks fall on window starts, which are a pure function of event
   times, so every shard count must agree exactly with [--shards 1]. *)
let test_report_invariant_across_shards () =
  let run sharding =
    let r = Runner.run (scenario_of ~telemetry:tele_05 ~sharding (flat 30)) in
    checkb "converged" true r.Runner.converged;
    Option.get r.Runner.report
  in
  let base = run 1 in
  let base_mem = Option.get base.Telemetry.memory in
  List.iter
    (fun k ->
      let rep = run k in
      checkb
        (Printf.sprintf
           "probes/progress/samples/routing counters identical at --shards %d" k)
        true
        (routing_view base = routing_view rep);
      let mem = Option.get rep.Telemetry.memory in
      checki (Printf.sprintf "k=%d: one memory entry per shard" k) k
        (List.length mem.Telemetry.per_shard);
      checki (Printf.sprintf "k=%d: every router owned by exactly one shard" k) 30
        (List.fold_left
           (fun acc (s : Telemetry.shard_memory) -> acc + s.Telemetry.routers)
           0 mem.Telemetry.per_shard);
      (* Final RIB contents are bit-identical for every shard count, so
         the word-model totals must agree exactly. *)
      checki (Printf.sprintf "k=%d: RIB bytes invariant" k)
        base_mem.Telemetry.rib_bytes_total mem.Telemetry.rib_bytes_total;
      checki (Printf.sprintf "k=%d: path bytes invariant" k)
        base_mem.Telemetry.path_bytes_total mem.Telemetry.path_bytes_total)
    [ 1; 2; 4 ]

let test_memory_snapshot_sharded () =
  let r = Runner.run (scenario_of ~telemetry:tele_05 ~sharding:4 (flat 40)) in
  let rep = Option.get r.Runner.report in
  let mem = Option.get rep.Telemetry.memory in
  checki "four shards" 4 (List.length mem.Telemetry.per_shard);
  List.iter
    (fun (s : Telemetry.shard_memory) ->
      checkb (Printf.sprintf "shard %d has routers" s.Telemetry.shard) true
        (s.Telemetry.routers > 0);
      checkb (Printf.sprintf "shard %d has RIB state" s.Telemetry.shard) true
        (s.Telemetry.rib_entries > 0 && s.Telemetry.rib_bytes > 0);
      checkb (Printf.sprintf "shard %d built paths" s.Telemetry.shard) true
        (s.Telemetry.path_nodes > 0 && s.Telemetry.path_bytes > 0);
      checkb (Printf.sprintf "shard %d scheduler high-water sane" s.Telemetry.shard)
        true
        (s.Telemetry.sched_max_live > 0
        && s.Telemetry.sched_max_live <= s.Telemetry.sched_slab_cap))
    mem.Telemetry.per_shard;
  checkb "path sharing >= 1" true (mem.Telemetry.path_sharing >= 1.0);
  (* The memory snapshot rides in report_json (additively; the schema is
     unchanged). *)
  let json = J.parse (Telemetry.report_json rep) in
  (match Option.bind (member "memory" json)
           (member "rib_bytes_total") with
  | Some v ->
    checkb "rib_bytes_total in json" true
      (to_float v = Some (float_of_int mem.Telemetry.rib_bytes_total))
  | None -> Alcotest.fail "no memory object in report json")

(* --- No perturbation when disabled (and when enabled) ---------------------- *)

let routing_fields (r : Runner.result) =
  ( ( r.Runner.converged,
      r.Runner.warmup_delay,
      r.Runner.convergence_delay,
      r.Runner.messages,
      r.Runner.adverts,
      r.Runner.withdrawals ),
    ( r.Runner.warmup_messages,
      r.Runner.eliminated,
      r.Runner.max_queue,
      r.Runner.mrai_transitions,
      r.Runner.survivors_connected,
      r.Runner.issues ) )

let check_no_perturbation name scenario_off scenario_on =
  let off = Runner.run scenario_off in
  let on = Runner.run scenario_on in
  checkb (name ^ ": telemetry off has no report") true (off.Runner.report = None);
  checkb (name ^ ": telemetry on has a report") true (on.Runner.report <> None);
  checkb
    (name ^ ": every routing-relevant field identical with telemetry on")
    true
    (routing_fields off = routing_fields on);
  (* Probes ride the engine's window barriers and schedule nothing, so
     even the executed-event count is unchanged. *)
  checki (name ^ ": probes add no events") off.Runner.events on.Runner.events

let test_disabled_changes_nothing_flat () =
  check_no_perturbation "flat"
    (scenario_of (flat 40))
    (scenario_of ~telemetry:tele_05 (flat 40))

let test_disabled_changes_nothing_realistic () =
  let topo = Runner.Realistic (As_topology.default ~n_ases:8) in
  check_no_perturbation "realistic"
    (scenario_of ~failure:(Runner.Fraction 0.2) topo)
    (scenario_of ~failure:(Runner.Fraction 0.2) ~telemetry:tele_05 topo)

let test_disabled_changes_nothing_tdown () =
  (* Classic Tdown: one link drops, both routers stay up. *)
  let topo = Runner.Fixed (fixed_topo 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ]) in
  check_no_perturbation "Tdown"
    (scenario_of ~failure:(Runner.Links [ (0, 1) ]) topo)
    (scenario_of ~failure:(Runner.Links [ (0, 1) ]) ~telemetry:tele_05 topo)

(* --- Probe series content -------------------------------------------------- *)

let dynamic_report () =
  let scheme = Mrai.paper_dynamic () in
  let r = Runner.run (scenario_of ~telemetry:tele_05 ~scheme (flat 60)) in
  match r.Runner.report with
  | Some report -> (r, report)
  | None -> Alcotest.fail "no report"

let test_progress_series () =
  let r, report = dynamic_report () in
  checkb "converged" true r.Runner.converged;
  let progress = report.Telemetry.progress in
  checkb "progress non-empty" true (Array.length progress > 0);
  let monotone = ref true in
  Array.iteri
    (fun i (p : Telemetry.series_point) ->
      if i > 0 then begin
        if p.Telemetry.value < progress.(i - 1).Telemetry.value then monotone := false
      end)
    progress;
  checkb "progress nondecreasing" true !monotone;
  checkf "progress ends at 1" 1.0 progress.(Array.length progress - 1).Telemetry.value;
  (match report.Telemetry.t_fail with
  | Some tf ->
    checkb "first probe at the failure instant" true
      (Float.abs (progress.(0).Telemetry.time -. tf) < 1e-9)
  | None -> Alcotest.fail "t_fail not stamped")

(* Acceptance check: on a dynamic-MRAI 10% failure, the queue-work series
   must peak while the controller is ramped up — overload is exactly what
   drives the level-up transitions (Section 4.3). *)
let test_queue_work_peak_coincides_with_levelup () =
  let _, report = dynamic_report () in
  checkb "levels moved at all" true (counter report "mrai.transitions" > 0.0);
  (* Total unfinished work per tick, and max MRAI level per tick. *)
  let by_tick = Hashtbl.create 64 in
  Array.iter
    (fun (s : Telemetry.sample) ->
      let w, l =
        Option.value (Hashtbl.find_opt by_tick s.Telemetry.time) ~default:(0.0, 0)
      in
      Hashtbl.replace by_tick s.Telemetry.time
        ( w +. s.Telemetry.row.Telemetry.unfinished_work,
          Stdlib.max l s.Telemetry.row.Telemetry.mrai_level ))
    report.Telemetry.samples;
  let peak_t, peak_w, _ =
    Hashtbl.fold
      (fun t (w, l) ((_, best_w, _) as best) -> if w > best_w then (t, w, l) else best)
      by_tick (0.0, neg_infinity, 0)
  in
  checkb "some queue work was observed" true (peak_w > 0.0);
  (* At (or within one probe of) the peak, at least one router must be
     ramped above the base MRAI level. *)
  let level_near_peak =
    Hashtbl.fold
      (fun t (_, l) acc -> if Float.abs (t -. peak_t) <= 1.0 then Stdlib.max acc l else acc)
      by_tick 0
  in
  checkb "MRAI level is up at the queue-work peak" true (level_near_peak >= 1)

let test_warmup_probes () =
  let telemetry = Some (Telemetry.config ~probe_interval:0.5 ~probe_warmup:true ()) in
  let r = Runner.run (scenario_of ~telemetry (flat 30)) in
  let report = Option.get r.Runner.report in
  match report.Telemetry.t_fail with
  | Some tf ->
    let pre_fail =
      Array.exists (fun (s : Telemetry.sample) -> s.Telemetry.time < tf)
        report.Telemetry.samples
    in
    checkb "warmup-phase samples present" true pre_fail
  | None -> Alcotest.fail "t_fail not stamped"

(* --- Exporters -------------------------------------------------------------- *)

let count_lines s =
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 s

let test_exporters_and_report_json () =
  let _, report = dynamic_report () in
  let rows = Array.length report.Telemetry.samples in
  checki "series csv: header + one line per sample" (rows + 1)
    (count_lines (Telemetry.series_csv report));
  checki "series jsonl: one object per sample" rows
    (count_lines (Telemetry.series_jsonl report));
  checki "progress csv: header + one line per tick"
    (Array.length report.Telemetry.progress + 1)
    (count_lines (Telemetry.progress_csv report));
  checki "counters jsonl: one object per metric"
    (List.length report.Telemetry.counters)
    (count_lines (Telemetry.counters_jsonl report));
  (* Every JSONL line and the report document must parse. *)
  String.split_on_char '\n' (Telemetry.series_jsonl report)
  |> List.iter (fun line -> if line <> "" then ignore (J.parse line));
  let json = J.parse (Telemetry.report_json report) in
  checkb "schema" true
    (Option.bind (member "schema" json) to_str
    = Some "bgp-telemetry/1");
  checkb "probe count in json" true
    (Option.bind (member "probes" json) to_float
    = Some (float_of_int report.Telemetry.probes));
  (match Option.bind (member "progress" json) to_list with
  | Some points -> checki "progress points" (Array.length report.Telemetry.progress)
                     (List.length points)
  | None -> Alcotest.fail "no progress array in report.json")

let test_export_writes_files () =
  let _, report = dynamic_report () in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "bgp_telemetry_test" in
  let paths = Telemetry.export ~dir ~prefix:"t1_" report in
  checki "six artifacts" 6 (List.length paths);
  List.iter
    (fun p ->
      checkb (p ^ " exists") true (Sys.file_exists p);
      let ic = open_in p in
      let len = in_channel_length ic in
      close_in ic;
      checkb (p ^ " non-empty") true (len > 0))
    paths

(* --- Profiler report (bgp-prof/2) ------------------------------------------- *)

let stop_exn () =
  match Profile.stop () with
  | Some r -> r
  | None -> Alcotest.fail "armed profiler returned no report"

let rows kind (spans : Profile.span_total list) =
  List.filter (fun (s : Profile.span_total) -> s.Profile.kind = kind) spans

let all_rows (r : Profile.report) =
  List.concat_map (fun (d : Profile.domain_report) -> d.Profile.spans) r.Profile.domains

let sum field spans = List.fold_left (fun acc s -> acc + field s) 0 spans
let count kind spans = sum (fun s -> s.Profile.count) (rows kind spans)
let total kind spans = sum (fun s -> s.Profile.total_ns) (rows kind spans)
let self_sum spans = sum (fun s -> s.Profile.self_ns) spans

let caller_spans (r : Profile.report) =
  let mine (d : Profile.domain_report) = d.Profile.dom = (Domain.self () :> int) in
  match List.find_opt mine r.Profile.domains with
  | Some d -> d.Profile.spans
  | None -> Alcotest.fail "no report for the calling domain"

let test_prof_json_roundtrip () =
  Profile.start ();
  Profile.enter Profile.Compute ~shard:2;
  Profile.leave ();
  Profile.within Profile.Build ignore;
  Profile.counter_max "test.high_water" 7;
  Profile.counter_max "test.high_water" 5;
  let r = stop_exn () in
  checkb "wall nonnegative" true (r.Profile.wall_ns >= 0);
  checkb "stop disarms" true (Profile.stop () = None);
  let json = J.parse (Profile.to_json r) in
  let str k j = Option.bind (member k j) to_str in
  let num k j = Option.bind (member k j) to_float in
  checkb "schema" true (str "schema" json = Some "bgp-prof/2");
  checkb "wall_s present" true (num "wall_s" json <> None);
  checkb "one session gc block" true
    (Option.bind (member "gc" json) (num "minor_words") <> None);
  let domains =
    match Option.bind (member "domains" json) to_list with
    | Some (_ :: _ as l) -> l
    | _ -> Alcotest.fail "no domains array"
  in
  let spans =
    List.concat_map
      (fun d -> Option.value ~default:[] (Option.bind (member "spans" d) to_list))
      domains
  in
  List.iter
    (fun s ->
      List.iter
        (fun k -> if num k s = None then Alcotest.failf "span row without %s" k)
        [ "shard"; "total_s"; "self_s"; "count"; "max_s" ])
    spans;
  let has span shard =
    List.exists (fun s -> str "span" s = Some span && num "shard" s = Some shard) spans
  in
  checkb "compute span at shard 2 survives the round-trip" true (has "compute" 2.0);
  checkb "build span at shard -1" true (has "build" (-1.0));
  (match Option.bind (member "counters" json) (member "test.high_water") with
  | Some v -> checkb "counter_max keeps the max" true (to_float v = Some 7.0)
  | None -> Alcotest.fail "counters object missing test.high_water");
  (* Every flamegraph line is "stack<space>integer". *)
  String.split_on_char '\n' (Profile.to_flamegraph r)
  |> List.iter (fun line ->
         if line <> "" then
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "malformed flamegraph line %S" line
           | Some i ->
             let v = String.sub line (i + 1) (String.length line - i - 1) in
             if int_of_string_opt v = None then
               Alcotest.failf "flamegraph value not an integer in %S" line)

(* Totals are kept per (kind, shard) as spans close, so every span of a
   long run is counted, not only a fixed-size buffer's worth. *)
let test_prof_exact_counts () =
  Profile.start ();
  for _ = 1 to 200_000 do
    Profile.enter Profile.Compute ~shard:0;
    Profile.leave ()
  done;
  let spans = caller_spans (stop_exn ()) in
  match rows Profile.Compute spans with
  | [ row ] ->
    checki "every span counted" 200_000 row.Profile.count;
    checki "shard tag kept" 0 row.Profile.shard;
    checki "a leaf's self is its total" row.Profile.total_ns row.Profile.self_ns;
    checkb "max within total" true
      (row.Profile.max_ns > 0 && row.Profile.max_ns <= row.Profile.total_ns)
  | l -> Alcotest.failf "expected one compute row, got %d" (List.length l)

(* A closing span hands its duration to the span it closed inside, so
   the self-times of a phase and everything nested in it sum to the
   phase's total, with no clock reads left over. *)
let test_prof_self_times_tile () =
  Profile.start ();
  Profile.within Profile.Converge (fun () ->
      for shard = 0 to 2 do
        Profile.enter Profile.Compute ~shard;
        Profile.enter Profile.Mailbox_post ~shard:(-1);
        Profile.leave ();
        Profile.leave ();
        Profile.enter Profile.Barrier_wait ~shard;
        Profile.leave ()
      done);
  let spans = caller_spans (stop_exn ()) in
  checki "one converge span" 1 (count Profile.Converge spans);
  checki "compute at three shards" 3 (List.length (rows Profile.Compute spans));
  checki "sum of self-times is the phase total" (total Profile.Converge spans)
    (self_sum spans);
  checki "compute self is compute minus the posts inside it"
    (total Profile.Compute spans - total Profile.Mailbox_post spans)
    (self_sum (rows Profile.Compute spans))

(* A job that raises inside a scoped phase closes the phase and then its
   pool_job on the way out, so after [Pool.map] re-raises, every domain's
   stack is empty again and the caller's next span is top level. *)
let test_prof_raise_unwinds () =
  Profile.start ();
  (try
     Profile.within Profile.Finalize (fun () ->
         ignore
           (Pool.map ~jobs:2
              (fun _ -> Profile.within Profile.Warmup (fun () -> raise Exit))
              [ 1; 2; 3; 4; 5; 6 ]))
   with Exit -> ());
  Profile.within Profile.Converge ignore;
  let r = stop_exn () in
  let all = all_rows r in
  checki "every raising warm-up closed" 6 (count Profile.Warmup all);
  checki "every raising job closed" 6 (count Profile.Pool_job all);
  checki "every take closed" 8 (count Profile.Pool_wait all);
  let spans = caller_spans r in
  checki "the phase around the pool closed once" 1 (count Profile.Finalize spans);
  (match rows Profile.Converge spans with
  | [ c ] -> checki "next span nests at top level" c.Profile.total_ns c.Profile.self_ns
  | _ -> Alcotest.fail "expected one converge row");
  checki "the caller's self-times sum to its two top-level spans"
    (total Profile.Finalize spans + total Profile.Converge spans)
    (self_sum spans)

(* --- Pool runtime metrics --------------------------------------------------- *)

let test_pool_domain_stats () =
  let _ = Pool.map ~jobs:2 (fun x -> x * x) [ 1; 2; 3; 4; 5 ] in
  let batch = Pool.last_batch () in
  checkb "per-domain entries present" true (batch <> []);
  checki "all jobs accounted for" 5
    (List.fold_left (fun acc (d : Pool.domain_stat) -> acc + d.Pool.jobs) 0 batch);
  (* At ~jobs:1 the single worker is the caller, domain 0. *)
  let _ = Pool.map ~jobs:1 (fun x -> x + 1) [ 1; 2; 3 ] in
  match Pool.last_batch () with
  | [ d ] ->
    checki "caller is domain 0" 0 d.Pool.domain;
    checki "ran everything" 3 d.Pool.jobs
  | l -> Alcotest.failf "expected one domain stat, got %d" (List.length l)

(* Under an armed profile every worker records one pool_job per job and
   one pool_wait per take from the deque, the final empty take included;
   a job's own spans nest in its pool_job.  [figures --prof] reports
   these rows, and their shape does not depend on the job count. *)
let test_pool_profile_spans ~jobs () =
  Profile.start ();
  let _ =
    Pool.map ~jobs
      (fun x -> Profile.within Profile.Warmup (fun () -> x * x))
      [ 1; 2; 3; 4; 5; 6 ]
  in
  let r = stop_exn () in
  (* One worker is the caller itself, so every row is on its domain. *)
  let all = if jobs = 1 then caller_spans r else all_rows r in
  checki "one warmup per job" 6 (count Profile.Warmup all);
  checki "one pool_job per job" 6 (count Profile.Pool_job all);
  checki "one pool_wait per take, each worker's empty take included" (6 + jobs)
    (count Profile.Pool_wait all);
  List.iter
    (fun (d : Profile.domain_report) ->
      match rows Profile.Pool_job d.Profile.spans with
      | [] -> ()
      | [ job ] ->
        checki
          (Printf.sprintf "domain %d: pool_job self is its total minus its warm-ups"
             d.Profile.dom)
          (job.Profile.total_ns - total Profile.Warmup d.Profile.spans)
          job.Profile.self_ns
      | _ -> Alcotest.fail "pool_job split across shards")
    r.Profile.domains

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "register and snapshot" `Quick test_registry;
          Alcotest.test_case "tick cap" `Quick test_tick_cap;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "counters match result totals" `Quick
            test_counters_match_result;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_probes_deterministic_across_jobs;
          Alcotest.test_case "invariant across shard counts" `Quick
            test_report_invariant_across_shards;
          Alcotest.test_case "memory snapshot (sharded)" `Quick
            test_memory_snapshot_sharded;
          Alcotest.test_case "off/on: flat unchanged" `Quick
            test_disabled_changes_nothing_flat;
          Alcotest.test_case "off/on: realistic unchanged" `Quick
            test_disabled_changes_nothing_realistic;
          Alcotest.test_case "off/on: Tdown unchanged" `Quick
            test_disabled_changes_nothing_tdown;
        ] );
      ( "series",
        [
          Alcotest.test_case "progress monotone to 1" `Quick test_progress_series;
          Alcotest.test_case "queue-work peak at MRAI level-up" `Quick
            test_queue_work_peak_coincides_with_levelup;
          Alcotest.test_case "warmup probes opt-in" `Quick test_warmup_probes;
        ] );
      ( "export",
        [
          Alcotest.test_case "csv/jsonl shapes + report.json parses" `Quick
            test_exporters_and_report_json;
          Alcotest.test_case "export writes files" `Quick test_export_writes_files;
        ] );
      ( "profile",
        [
          Alcotest.test_case "bgp-prof/2 round-trip" `Quick test_prof_json_roundtrip;
          Alcotest.test_case "exact counts past 65536 spans" `Quick
            test_prof_exact_counts;
          Alcotest.test_case "nested self-times tile the phase" `Quick
            test_prof_self_times_tile;
          Alcotest.test_case "raising job unwinds its spans" `Quick
            test_prof_raise_unwinds;
        ] );
      ( "pool",
        [
          Alcotest.test_case "per-domain stats" `Quick test_pool_domain_stats;
          Alcotest.test_case "profile spans" `Quick (test_pool_profile_spans ~jobs:2);
          Alcotest.test_case "profile spans at one job" `Quick
            (test_pool_profile_spans ~jobs:1);
        ] );
    ]
