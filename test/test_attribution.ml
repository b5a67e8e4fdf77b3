(* Attribution invariants on the golden scenarios.

   Three properties anchor the observability layer: (1) attaching a trace
   never perturbs the simulation — every result field stays bit-identical
   to an untraced run; (2) the critical path's component decomposition
   telescopes, so queueing + processing + MRAI hold + propagation sum to
   the measured convergence delay (up to float addition order) and the
   terminal hop's timestamp is exactly t_fail + delay; (3) the trace
   survives serialization — spilled-and-reloaded events yield the same
   attribution, and every event round-trips through JSONL. *)

module Runner = Bgp_netsim.Runner
module Network = Bgp_netsim.Network
module Trace = Bgp_netsim.Trace
module Attribution = Bgp_netsim.Attribution
module J = Bgp_engine.Json_lite
module Config = Bgp_proto.Config
module Path = Bgp_proto.Path
module Degree_dist = Bgp_topology.Degree_dist
module As_topology = Bgp_topology.As_topology
module Topology = Bgp_topology.Topology
module Graph = Bgp_topology.Graph
module Rng = Bgp_engine.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let exactf msg = Alcotest.check (Alcotest.float 0.0) msg
let nearf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* Same three scenario families (x 4 seeds) as test_golden.ml. *)

let flat_scenario =
  Runner.scenario
    ~net:(Network.config_default Config.(with_mrai (Static 1.25) default))
    ~failure:(Runner.Fraction 0.1) ~seed:3
    (Runner.Flat { spec = Degree_dist.skewed_70_30; n = 24 })

let realistic_scenario =
  Runner.scenario
    ~net:(Network.config_default Config.default)
    ~failure:(Runner.Fraction 0.1) ~seed:5
    (Runner.Realistic (As_topology.default ~n_ases:16))

let ring_topology n =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    Graph.add_edge g u ((u + 1) mod n)
  done;
  Topology.of_graph (Rng.create 99) g

let tdown_scenario =
  Runner.scenario
    ~net:(Network.config_default Config.(with_mrai (Static 2.0) default))
    ~failure:(Runner.Links [ (0, 1); (3, 4) ])
    ~seed:7
    (Runner.Fixed (ring_topology 8))

let with_trace ?capacity ?spill scenario =
  {
    scenario with
    Runner.net =
      {
        scenario.Runner.net with
        Network.trace = Some (Trace.create ?capacity ?spill ());
      };
  }

let get_attr ctx (r : Runner.result) =
  match r.Runner.attribution with
  | Some a -> a
  | None -> Alcotest.failf "%s: traced run produced no attribution" ctx

(* (1) + (2): trace neutrality and the decomposition invariants, on all
   12 golden scenario instances. *)
let check_family name scenario () =
  for i = 0 to 3 do
    let scenario = { scenario with Runner.seed = scenario.Runner.seed + i } in
    let ctx field = Printf.sprintf "%s seed+%d: %s" name i field in
    let plain = Runner.run scenario in
    let traced = Runner.run (with_trace scenario) in
    (* bit-identity of every result field *)
    checkb (ctx "converged") plain.Runner.converged traced.Runner.converged;
    exactf (ctx "warmup_delay") plain.Runner.warmup_delay traced.Runner.warmup_delay;
    exactf (ctx "convergence_delay") plain.Runner.convergence_delay
      traced.Runner.convergence_delay;
    checki (ctx "messages") plain.Runner.messages traced.Runner.messages;
    checki (ctx "adverts") plain.Runner.adverts traced.Runner.adverts;
    checki (ctx "withdrawals") plain.Runner.withdrawals traced.Runner.withdrawals;
    checki (ctx "warmup_messages") plain.Runner.warmup_messages
      traced.Runner.warmup_messages;
    checki (ctx "eliminated") plain.Runner.eliminated traced.Runner.eliminated;
    checki (ctx "max_queue") plain.Runner.max_queue traced.Runner.max_queue;
    checki (ctx "events") plain.Runner.events traced.Runner.events;
    (* decomposition invariants *)
    let attr = get_attr (ctx "attribution") traced in
    checkb (ctx "complete") true attr.Attribution.complete;
    exactf (ctx "attr delay = result delay") plain.Runner.convergence_delay
      attr.Attribution.convergence_delay;
    nearf (ctx "components sum to delay") plain.Runner.convergence_delay
      (Attribution.total attr.Attribution.totals);
    (match List.rev attr.Attribution.critical_path with
    | [] -> Alcotest.fail (ctx "empty critical path")
    | terminal :: _ ->
      exactf (ctx "terminal timestamp = t_fail + delay")
        (attr.Attribution.t_fail +. plain.Runner.convergence_delay)
        (Trace.time_of terminal.Attribution.event));
    (* the chain is causally linked: each hop's cause is the previous
       hop's id, and the root is a true causal root *)
    (match attr.Attribution.critical_path with
    | [] -> ()
    | root :: rest ->
      checki (ctx "root has no cause") Trace.no_cause
        (Trace.cause_of root.Attribution.event);
      ignore
        (List.fold_left
           (fun prev_id (hop : Attribution.hop) ->
             checki (ctx "hop cause = predecessor id") prev_id
               (Trace.cause_of hop.Attribution.event);
             Trace.id_of hop.Attribution.event)
           (Trace.id_of root.Attribution.event)
           rest));
    (* hop parts re-sum to the totals *)
    let resummed =
      List.fold_left
        (fun acc (hop : Attribution.hop) -> Attribution.add acc hop.Attribution.parts)
        Attribution.zero attr.Attribution.critical_path
    in
    nearf (ctx "hop parts sum to totals")
      (Attribution.total attr.Attribution.totals)
      (Attribution.total resummed);
    (* per-router residencies partition the critical path *)
    let residency_sum =
      List.fold_left
        (fun acc (s : Attribution.router_stat) -> acc +. s.Attribution.residency)
        0.0 attr.Attribution.per_router
    in
    nearf (ctx "router residencies sum to delay") plain.Runner.convergence_delay
      residency_sum;
    (* per-destination attributions: every destination's components
       telescope to its own measured tail, every chain roots, and the
       slowest tail is the network-wide delay *)
    checkb (ctx "some destination re-converged") true (attr.Attribution.per_dest <> []);
    List.iter
      (fun (d : Attribution.dest_attr) ->
        let dctx field = ctx (Printf.sprintf "dest %d: %s" d.Attribution.dest field) in
        checkb (dctx "complete") true d.Attribution.dest_complete;
        nearf (dctx "components sum to tail") d.Attribution.tail
          (Attribution.total d.Attribution.dest_parts);
        match List.rev d.Attribution.dest_path with
        | [] -> Alcotest.fail (dctx "empty path")
        | terminal :: _ ->
          exactf (dctx "terminal timestamp = t_fail + tail")
            (attr.Attribution.t_fail +. d.Attribution.tail)
            (Trace.time_of terminal.Attribution.event))
      attr.Attribution.per_dest;
    (match attr.Attribution.per_dest with
    | slowest :: _ ->
      exactf (ctx "slowest tail = convergence delay")
        attr.Attribution.convergence_delay slowest.Attribution.tail
    | [] -> ());
    (* tails are ordered and the summary percentiles bracket them *)
    checki (ctx "tail summary counts per_dest")
      (List.length attr.Attribution.per_dest)
      attr.Attribution.tails.Attribution.n_dests;
    checkb (ctx "p50 <= p95 <= p99") true
      (attr.Attribution.tails.Attribution.p50 <= attr.Attribution.tails.Attribution.p95
      && attr.Attribution.tails.Attribution.p95 <= attr.Attribution.tails.Attribution.p99)
  done

(* The run's trace does all ring, drop and spill accounting, at every
   shard count: the shards' recorded events all pass through it. *)
let traced_run ~shards trace =
  Runner.run
    {
      flat_scenario with
      Runner.sharding = Some shards;
      net = { flat_scenario.Runner.net with Network.trace = Some trace };
    }

(* (3a): a tiny ring that spills to JSONL must reconstruct the identical
   attribution — nothing is lost on ring wrap. *)
let check_spill_roundtrip shards =
  let ctx what = Printf.sprintf "shards=%d: %s" shards what in
  let spill = Filename.temp_file "bgpsim_spill" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove spill with Sys_error _ -> ())
    (fun () ->
      let big_trace = Trace.create ~capacity:1_000_000 () in
      let big = traced_run ~shards big_trace in
      let small_trace = Trace.create ~capacity:500 ~spill () in
      let small = traced_run ~shards small_trace in
      let a_big = get_attr "spill: big" big in
      let a_small = get_attr "spill: small" small in
      let total = Trace.length big_trace in
      checki (ctx "small ring spilled the overflow") (total - 500) (Trace.spilled small_trace);
      checki (ctx "no drops with a sink") 0 (Trace.dropped small_trace);
      checki (ctx "every event reads back") total (List.length (Trace.events small_trace));
      Alcotest.check Alcotest.string (ctx "attribution identical across spill")
        (Attribution.to_json a_big)
        (Attribution.to_json a_small);
      checkb (ctx "spilled trace complete") true a_small.Attribution.complete)

(* Without a spill sink, a small ring must *count* what it loses and
   report the truncation (complete = false), not silently pretend full
   coverage. *)
let check_drop_counting shards =
  let ctx what = Printf.sprintf "shards=%d: %s" shards what in
  let big_trace = Trace.create ~capacity:1_000_000 () in
  let _ = traced_run ~shards big_trace in
  let trace = Trace.create ~capacity:50 () in
  let r = traced_run ~shards trace in
  checki (ctx "every lost event counted") (Trace.length big_trace - 50) (Trace.dropped trace);
  checki (ctx "nothing spilled without a sink") 0 (Trace.spilled trace);
  checkb (ctx "attribution reports the truncation") false
    (get_attr "drops" r).Attribution.complete

(* (3b): every traced event survives a JSONL round-trip byte-for-byte
   (paths are rebuilt on reading, which the serialization hides). *)
let check_event_roundtrip () =
  let trace = Trace.create ~capacity:1_000_000 () in
  let scenario =
    { flat_scenario with Runner.net = { flat_scenario.Runner.net with Network.trace = Some trace } }
  in
  let _ = Runner.run scenario in
  let events = Trace.events trace in
  checkb "trace non-empty" true (events <> []);
  let paths = Path.create_table () in
  List.iter
    (fun e ->
      let line = Trace.event_to_json e in
      match Trace.event_of_json ~paths line with
      | Error msg -> Alcotest.failf "round-trip parse failed: %s on %s" msg line
      | Ok e' ->
        Alcotest.check Alcotest.string "event json round-trip" line
          (Trace.event_to_json e'))
    events;
  (match Trace.event_of_json ~paths "{\"kind\": \"nonsense\"}" with
  | Ok _ -> Alcotest.fail "parsed a bogus event kind"
  | Error _ -> ());
  match Trace.event_of_json ~paths "not json at all" with
  | Ok _ -> Alcotest.fail "parsed garbage"
  | Error _ -> ()

(* The analyze JSON is schema-valid and self-consistent, checked with the
   repo's own JSON reader (%.17g floats round-trip exactly).  Json_lite's
   accessors raise [Bad] naming the key on a missing or mistyped member. *)
let check_attr_json () =
  let traced = Runner.run (with_trace flat_scenario) in
  let attr = get_attr "json" traced in
  let json = J.obj (J.parse (Attribution.to_json attr)) in
  let member obj key = J.field obj key in
  let float_member obj key = J.float (member obj key) in
  Alcotest.check Alcotest.string "schema" "bgp-attr/2" (J.str (member json "schema"));
  let totals = J.obj (member json "totals") in
  let sum =
    float_member totals "queueing"
    +. float_member totals "processing"
    +. float_member totals "mrai_hold"
    +. float_member totals "propagation"
  in
  nearf "json components sum to delay" (float_member json "convergence_delay") sum;
  checkb "complete should be true" true (J.bool (member json "complete"));
  let path = J.arr (member json "critical_path") in
  checki "json path length" (List.length attr.Attribution.critical_path)
    (List.length path);
  checkb "per_router is non-empty" true (J.arr (member json "per_router") <> []);
  let per_dest = J.obj (member json "per_dest") in
  exactf "json dests"
    (float_of_int attr.Attribution.tails.Attribution.n_dests)
    (float_member per_dest "dests");
  let dests = J.arr (member per_dest "destinations") in
  checki "json destinations length"
    (List.length attr.Attribution.per_dest)
    (List.length dests);
  (* each serialized destination's parts sum to its tail *)
  List.iter
    (fun d ->
      let d = J.obj d in
      let parts = J.obj (member d "parts") in
      let sum =
        float_member parts "queueing"
        +. float_member parts "processing"
        +. float_member parts "mrai_hold"
        +. float_member parts "propagation"
      in
      nearf "json dest parts sum to tail" (float_member d "tail") sum)
    dests

(* The flat reference scenario must surface at least one straggler: a
   destination whose tail exceeds the p95 tail (the acceptance criterion
   for the per-destination view). *)
let check_stragglers () =
  (* seed 1: 24 destinations re-converge there, enough for p95 to sit
     below the maximum tail *)
  let traced = Runner.run (with_trace { flat_scenario with Runner.seed = 1 }) in
  let attr = get_attr "stragglers" traced in
  let late = Attribution.stragglers attr in
  checkb "at least one straggler beyond p95" true (late <> []);
  List.iter
    (fun (d : Attribution.dest_attr) ->
      checkb "straggler is beyond p95" true
        (d.Attribution.tail > attr.Attribution.tails.Attribution.p95))
    late;
  (* stragglers lead the per_dest ranking *)
  match (late, attr.Attribution.per_dest) with
  | d :: _, d' :: _ -> checki "slowest straggler ranks first" d'.Attribution.dest d.Attribution.dest
  | _ -> Alcotest.fail "empty ranking"

(* Flamegraph lines re-sum to the aggregate decomposition (integer
   microseconds, so each emitted or omitted line may round by 0.5us). *)
let check_flamegraph_totals () =
  let traced = Runner.run (with_trace flat_scenario) in
  let attr = get_attr "flame" traced in
  let folded = Attribution.to_flamegraph ~mode:Attribution.Flame_aggregate attr in
  checkb "flamegraph non-empty" true (String.length folded > 0);
  let lines = String.split_on_char '\n' folded in
  let lines = List.filter (fun l -> l <> "") lines in
  let sums = Hashtbl.create 4 in
  let n_lines = ref 0 in
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "malformed flame line %S" line
      | Some i ->
        let stack = String.sub line 0 i in
        let value =
          float_of_string (String.sub line (i + 1) (String.length line - i - 1))
        in
        checkb "value is whole microseconds" true (Float.is_integer value);
        incr n_lines;
        (match String.split_on_char ';' stack with
        | [ _router; comp ] ->
          Hashtbl.replace sums comp
            (value +. Option.value ~default:0.0 (Hashtbl.find_opt sums comp))
        | _ -> Alcotest.failf "expected router;component, got %S" stack))
    lines;
  let near_us msg expect got =
    (* 0.5us rounding per line, summed *)
    let tolerance = 0.5 *. float_of_int !n_lines in
    if Float.abs (expect -. got) > tolerance then
      Alcotest.failf "%s: expected %f (+/- %f), got %f" msg expect tolerance got
  in
  let sum_of comp = Option.value ~default:0.0 (Hashtbl.find_opt sums comp) in
  List.iter
    (fun comp ->
      near_us
        (Printf.sprintf "flame %s total" comp)
        (Attribution.component attr.Attribution.aggregate comp *. 1e6)
        (sum_of comp))
    Attribution.component_names

(* Merge over finalized per-trial trace files equals merging the in-memory
   attributions, and a jobs=4 traced sweep is bit-identical to jobs=1. *)
let check_merge_and_jobs () =
  let dir = Filename.temp_file "bgpsim_merge" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let cleanup () = rm_rf dir in
  Fun.protect ~finally:cleanup (fun () ->
      let trials = 4 in
      let sweep jobs sub =
        Sys.mkdir (Filename.concat dir sub) 0o755;
        let base = Filename.concat (Filename.concat dir sub) "trace.jsonl" in
        let pairs = Runner.traced ~spill_base:base flat_scenario ~trials in
        let results = Bgp_engine.Pool.map ~jobs (fun (s, _) -> Runner.run s) pairs in
        List.combine results (List.map snd pairs)
      in
      let seq = sweep 1 "seq" and par = sweep 4 "par" in
      let trials_of runs =
        List.mapi
          (fun i (r, _) ->
            {
              Attribution.trial_seed = flat_scenario.Runner.seed + i;
              attr = get_attr "merge" r;
            })
          runs
      in
      let seq_trials = trials_of seq and par_trials = trials_of par in
      (* jobs=4 == jobs=1, per trial and merged *)
      List.iter2
        (fun a b ->
          Alcotest.check Alcotest.string "per-trial attr identical across jobs"
            (Attribution.to_json a.Attribution.attr)
            (Attribution.to_json b.Attribution.attr))
        seq_trials par_trials;
      let m_seq = Attribution.merge seq_trials in
      let m_par = Attribution.merge par_trials in
      Alcotest.check Alcotest.string "merged json identical across jobs"
        (Attribution.merged_to_json m_seq)
        (Attribution.merged_to_json m_par);
      (* finalize the parallel sweep's traces and re-analyze from files *)
      List.iteri
        (fun i ((r : Runner.result), trace) ->
          let attr = get_attr "finalize" r in
          Trace.finalize trace
            ~meta:
              {
                Trace.seed = flat_scenario.Runner.seed + i;
                t_fail = attr.Attribution.t_fail;
              })
        par;
      let paths = Path.create_table () in
      let from_files =
        List.map
          (fun (_, trace) ->
            let file = Option.get (Trace.spill_path trace) in
            match Trace.read_file ~paths file with
            | Ok (Some meta, events) ->
              {
                Attribution.trial_seed = meta.Trace.seed;
                attr = Attribution.analyze ~t_fail:meta.Trace.t_fail events;
              }
            | Ok (None, _) -> Alcotest.failf "finalized file %s lost its meta line" file
            | Error m -> Alcotest.failf "read_file failed: %s" m)
          par
      in
      (* file-based analyses equal the in-memory union, trial by trial *)
      List.iter2
        (fun (a : Attribution.trial) (b : Attribution.trial) ->
          checki "merge seed" a.Attribution.trial_seed b.Attribution.trial_seed;
          Alcotest.check Alcotest.string "file analysis = in-memory analysis"
            (Attribution.to_json a.Attribution.attr)
            (Attribution.to_json b.Attribution.attr))
        seq_trials from_files;
      let m_files = Attribution.merge from_files in
      Alcotest.check Alcotest.string "merged-from-files json identical"
        (Attribution.merged_to_json m_seq)
        (Attribution.merged_to_json m_files))

(* Damping causality: a reuse re-announcement must carry the cause of the
   update whose processing parked the route, not restart at no_cause —
   so the only causal roots in a damped post-failure trace are the
   failure injections themselves. *)
let damping_scenario =
  (* aggressive thresholds so suppression (and hence reuse) actually
     happens inside a short run *)
  let damping =
    {
      Bgp_core.Damping.withdraw_penalty = 1.0;
      update_penalty = 1.0;
      half_life = 4.0;
      cut_threshold = 1.0;
      reuse_threshold = 0.75;
      max_suppress = 60.0;
    }
  in
  Runner.scenario
    ~net:
      (Network.config_default
         Config.{ (with_mrai (Static 1.25) default) with damping = Some damping })
    ~failure:(Runner.Fraction 0.2) ~seed:3
    (Runner.Flat { spec = Degree_dist.skewed_70_30; n = 24 })

let check_damping_causality () =
  let trace = Trace.create ~capacity:1_000_000 () in
  let scenario =
    {
      damping_scenario with
      Runner.net = { damping_scenario.Runner.net with Network.trace = Some trace };
    }
  in
  let result = Runner.run scenario in
  let attr = get_attr "damping" result in
  let t_fail = attr.Attribution.t_fail in
  let post =
    List.filter (fun e -> Trace.time_of e >= t_fail) (Trace.events trace)
  in
  checkb "damping run produced post-failure events" true (post <> []);
  (* every causal root after the failure is a failure event: reuse
     re-announcements no longer restart chains at no_cause *)
  List.iter
    (fun e ->
      if Trace.cause_of e = Trace.no_cause then
        match e with
        | Trace.Router_failed _ | Trace.Session_down _ -> ()
        | _ ->
          Alcotest.failf "orphaned causal root: %s" (Trace.event_to_json e))
    post;
  checkb "damped attribution complete" true attr.Attribution.complete;
  (* the scenario must actually exercise a reuse: some event's cause
     precedes it by several seconds — the suppression wait threaded
     through the reuse timer (MRAI gaps are capped at 1.25 s here, so a
     > 2 s gap can only be a damping reuse) *)
  let by_id = Hashtbl.create 1024 in
  List.iter (fun e -> Hashtbl.replace by_id (Trace.id_of e) e) (Trace.events trace);
  let reuse_gaps =
    List.filter
      (fun e ->
        match Hashtbl.find_opt by_id (Trace.cause_of e) with
        | Some c -> Trace.time_of e -. Trace.time_of c > 2.0
        | None -> false)
      post
  in
  checkb "a suppressed update was released with its cause intact" true
    (reuse_gaps <> [])

(* Attribution under chaos (pinned seeds): injected faults — partitions
   that heal, flapping sessions — become causal roots of their own, the
   component decomposition still telescopes exactly to the measured
   delay, and no post-failure chain is orphaned. *)
module Fi = Bgp_netsim.Fault_injector
module Failure = Bgp_topology.Failure

let live_sessions topo failure =
  List.filter_map
    (fun (u, v, _) ->
      if Failure.is_failed failure u || Failure.is_failed failure v then None
      else Some (if u <= v then (u, v) else (v, u)))
    (Network.sessions_of_topology topo)

let partition_schedule _topo failure =
  let side = List.filteri (fun i _ -> i < 3) (Failure.survivors failure) in
  [ { Fi.at = 0.3; fault = Fi.Partition { side; heal_after = 1.5 } } ]

let reset_schedule topo failure =
  let live = live_sessions topo failure in
  let u, v = List.nth live 0 in
  let u2, v2 = List.nth live (7 mod List.length live) in
  [
    { Fi.at = 0.2; fault = Fi.Session_reset { u; v; recover_after = 0.8 } };
    { Fi.at = 0.6; fault = Fi.Session_reset { u = u2; v = v2; recover_after = 1.0 } };
  ]

let check_chaos_attr name mk_schedule () =
  List.iter
    (fun seed ->
      let scenario = { flat_scenario with Runner.seed } in
      let topo = Runner.topology_of scenario in
      let failure = Runner.failure_of scenario topo in
      let schedule = mk_schedule topo failure in
      (match Fi.validate ~n:(Topology.num_routers topo) ~horizon:6.0 schedule with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s seed %d: bad pinned schedule: %s" name seed m);
      let trace = Trace.create ~capacity:500_000 () in
      let scenario =
        {
          scenario with
          Runner.faults = Some schedule;
          net = { scenario.Runner.net with Network.trace = Some trace };
        }
      in
      let result = Runner.run scenario in
      let ctx field = Printf.sprintf "%s seed %d: %s" name seed field in
      checkb (ctx "converged") true result.Runner.converged;
      let attr = get_attr (ctx "attribution") result in
      checkb (ctx "complete under chaos") true attr.Attribution.complete;
      exactf (ctx "attr delay = result delay") result.Runner.convergence_delay
        attr.Attribution.convergence_delay;
      nearf (ctx "components sum to delay under chaos")
        result.Runner.convergence_delay
        (Attribution.total attr.Attribution.totals);
      let events = Trace.events trace in
      checkb (ctx "fault roots recorded") true
        (List.exists (function Trace.Fault _ -> true | _ -> false) events);
      (* every post-failure causal root is an injection: the original
         failure or a chaos fault — chaos adds roots, never orphans *)
      let t_fail = attr.Attribution.t_fail in
      List.iter
        (fun e ->
          if Trace.time_of e >= t_fail && Trace.cause_of e = Trace.no_cause then
            match e with
            | Trace.Router_failed _ | Trace.Session_down _ | Trace.Fault _ -> ()
            | _ ->
              Alcotest.failf "%s seed %d: orphaned causal root: %s" name seed
                (Trace.event_to_json e))
        events;
      (* per-destination tails telescope too *)
      List.iter
        (fun (d : Attribution.dest_attr) ->
          if d.Attribution.dest_complete then
            nearf
              (ctx (Printf.sprintf "dest %d tail telescopes" d.Attribution.dest))
              d.Attribution.tail
              (Attribution.total d.Attribution.dest_parts))
        attr.Attribution.per_dest)
    [ 3; 4; 5 ]

let () =
  Alcotest.run "attribution"
    [
      ( "golden-invariants",
        [
          Alcotest.test_case "flat 70-30 (4 seeds)" `Quick
            (check_family "flat" flat_scenario);
          Alcotest.test_case "realistic 16-AS (4 seeds)" `Quick
            (check_family "realistic" realistic_scenario);
          Alcotest.test_case "Tdown ring (4 seeds)" `Quick
            (check_family "tdown" tdown_scenario);
        ] );
      ( "per-destination",
        [
          Alcotest.test_case "stragglers beyond p95" `Quick check_stragglers;
          Alcotest.test_case "flamegraph totals = aggregate" `Quick
            check_flamegraph_totals;
          Alcotest.test_case "merge: files = memory, jobs=4 = jobs=1" `Quick
            check_merge_and_jobs;
          Alcotest.test_case "damping reuse keeps its cause" `Quick
            check_damping_causality;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "partition-heal keeps exact telescoping" `Quick
            (check_chaos_attr "partition" partition_schedule);
          Alcotest.test_case "session flaps keep exact telescoping" `Quick
            (check_chaos_attr "reset" reset_schedule);
        ] );
      ( "serialization",
        [
          Alcotest.test_case "spill round-trip" `Quick (fun () ->
              List.iter check_spill_roundtrip [ 1; 2; 4 ]);
          Alcotest.test_case "drop counting without sink" `Quick (fun () ->
              List.iter check_drop_counting [ 1; 2; 4 ]);
          Alcotest.test_case "event JSONL round-trip" `Quick
            check_event_roundtrip;
          Alcotest.test_case "analyze JSON self-consistency" `Quick
            check_attr_json;
        ] );
    ]
