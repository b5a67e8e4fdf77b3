(* One benchmark process: one workload, one round, one pass.

     bgpbench setup  WORKLOAD SEED ROUND
     bgpbench timed  WORKLOAD SEED ROUND
     bgpbench traced WORKLOAD SEED ROUND

   [run.py] starts a fresh process for every pass so that each pass sees
   a fresh OCaml heap: GC counts then repeat exactly from run to run.
   Everything is measured from outside the library — this file times its
   own calls into public functions and reads public counters.  The last
   line of stdout is one JSON object. *)

module Runner = Bgp_netsim.Runner
module Network = Bgp_netsim.Network
module Churn = Bgp_netsim.Churn
module Trace = Bgp_netsim.Trace
module Attribution = Bgp_netsim.Attribution
module Attr_merge = Bgp_netsim.Attr_merge
module Telemetry = Bgp_netsim.Telemetry
module Fi = Bgp_netsim.Fault_injector
module Config = Bgp_proto.Config
module Path = Bgp_proto.Path
module Rib = Bgp_proto.Rib
module Iq = Bgp_core.Input_queue
module Mrai = Bgp_core.Mrai_controller
module Sched = Bgp_engine.Scheduler
module Rng = Bgp_engine.Rng
module Pool = Bgp_engine.Pool
module Topology = Bgp_topology.Topology
module Graph = Bgp_topology.Graph
module Degree_dist = Bgp_topology.Degree_dist
module Scenarios = Bgp_experiments.Scenarios
module Figure = Bgp_experiments.Figure
module Sweep = Bgp_experiments.Sweep
module Verdicts = Bgp_experiments.Verdicts
module Chaos = Bgp_experiments.Chaos
module Json = Bgp_netsim.Json_lite

let clock () = Int64.to_float (Bgp_engine.Profile.now_ns ()) *. 1e-9

let time f =
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)

(* The domains this process ran on: the widest batch [Pool] reports after
   each pooled call, and the shard count of any sharded trial. *)
let domains_used = ref 1

let note_pool () = domains_used := max !domains_used (List.length (Pool.last_batch ()))

let note_sharding (s : Runner.scenario) =
  Option.iter (fun k -> domains_used := max !domains_used k) s.Runner.sharding

(* --- Workloads ----------------------------------------------------------- *)

type workload = Paper_sweep | Paper_schemes | Churn_storm | Chaos_campaign

let workload_of_string = function
  | "paper-sweep" -> Paper_sweep
  | "paper-schemes" -> Paper_schemes
  | "churn-storm" -> Churn_storm
  | "chaos-campaign" -> Chaos_campaign
  | s -> failwith ("unknown workload " ^ s)

(* Seed 1, round 0 is the repository's usual seed 1; rounds and benchmark
   seeds step through disjoint trial-seed blocks. *)
let base_seed ~seed ~round = 1 + (1000 * (seed - 1)) + (10 * round)

let flat n = Runner.Flat { spec = Degree_dist.skewed_70_30; n }

(* Every workload runs on one pinned topology, the flat 70-30 graph of
   trial seed 1 (n = 120, the paper's size).  The benchmark seed drives
   everything else: the simulation's random streams and the churn and
   fault schedules.  The work then stays comparable from seed to seed, so
   the spread of a metric over seeds measures the host rather than the
   topology. *)
let pinned_topology ?(n = 120) () = Runner.topology_of (Runner.scenario ~seed:1 (flat n))

let pin topo (s : Runner.scenario) = { s with Runner.topo = Runner.Fixed topo }

(* [bgpsim churn] / [bgpsim chaos] defaults: 5% failure, static MRAI 30 s. *)
let cli_base topo seed = Runner.scenario ~failure:(Runner.Fraction 0.05) ~seed (Runner.Fixed topo)

let fig1_opts seed =
  {
    Scenarios.quick with
    n = 120;
    trials = 1;
    seed;
    sizes = [ 0.01; 0.05; 0.10; 0.20 ];
    mrais = Scenarios.fig1_mrais;
  }

let fig1_cell topo seed ~mrai ~frac =
  pin topo (Scenarios.flat (fig1_opts seed) ~scheme:(Mrai.Static mrai) ~frac ())

(* The [bgpsim chaos] default ring; at 500k events the n = 120 trial of
   seed 1 drops events and its battery reports [trace_capacity]. *)
let chaos_capacity = 1_000_000

(* One chaos trial per round: round [k] is trial [k] of the campaign that
   starts at the benchmark seed's round-0 trial seed.  Only round 0 is
   replayed ([replay_every] = [max_int]): a replayed trial runs twice and
   holds two traces, so the timed rounds start at round 1 and all do the
   same kind of work.  Chaos trials run at n = 60: at n = 120 a trial
   takes 3-6 s, its cost swings with its fault schedule, and only two or
   three fit in a run, too few for a steady median. *)
let chaos_n = 60

let chaos_config ~sidecar_dir ~seed =
  Chaos.config ~trials:1 ~capacity:chaos_capacity ~replay_every:max_int ~sidecar_dir
    (cli_base (pinned_topology ~n:chaos_n ()) (base_seed ~seed ~round:0))

let flap_storm = Churn.Flap_storm { prefixes = 300; flaps = 3; hold = 1.0; spread = 5.0 }

(* One trial as the timed pass will run it.  [key]: trials whose set-up
   work is identical share a key (Figure 1's four failure sizes share one
   warm-up per MRAI).  Each trial generates its own copy of the pinned
   topology, so set-up time includes topology generation. *)
type trial = {
  key : string;
  scenario : Runner.scenario;
  topology_s : float;
  churn_gen_s : float;
  fault_gen_s : float;
  schedule : Fi.schedule;  (* chaos only; [] elsewhere *)
}

let plain ~key make =
  let topo, topology_s = time pinned_topology in
  { key; scenario = make topo; topology_s; churn_gen_s = 0.0; fault_gen_s = 0.0; schedule = [] }

(* A flap storm as [bgpsim churn] derives it: the prefix plan from the
   pinned topology's trial seed, the schedule from this trial's seed. *)
let churn_trial seed =
  let topo, topology_s = time pinned_topology in
  let base = { (cli_base topo seed) with Runner.warmup = Runner.Analytic } in
  let scenario, churn_gen_s =
    time (fun () ->
        let rng_plan = Rng.split (Rng.create (1 lxor 0x6368726e)) in
        let rng_churn = Rng.split (Rng.split (Rng.create (seed lxor 0x6368726e))) in
        let counts =
          Churn.prefix_counts ~rng:rng_plan ~n_ases:topo.Topology.n_ases ~mean:4.0
            ~max_prefixes:10_000
        in
        let bgp = Config.with_prefix_plan counts base.Runner.net.Network.bgp in
        let schedule = Churn.generate ~rng:rng_churn ~config:bgp ~topo flap_storm in
        { base with Runner.net = { base.Runner.net with Network.bgp }; churn = Some schedule })
  in
  { key = string_of_int seed; scenario; topology_s; churn_gen_s; fault_gen_s = 0.0; schedule = [] }

let chaos_trial cfg i =
  let _, topology_s = time (pinned_topology ~n:chaos_n) in
  let scenario = { cfg.Chaos.base with Runner.seed = cfg.Chaos.base.Runner.seed + i } in
  let schedule, fault_gen_s = time (fun () -> Chaos.schedule_for cfg scenario) in
  { key = string_of_int i; scenario; topology_s; churn_gen_s = 0.0; fault_gen_s; schedule }

let trials_of ~sidecar_dir workload ~seed ~round =
  let bench_seed = seed in
  let seed = base_seed ~seed ~round in
  match workload with
  | Paper_sweep ->
    List.concat_map
      (fun mrai ->
        List.map
          (fun frac ->
            plain ~key:(Printf.sprintf "mrai=%g" mrai) (fun topo -> fig1_cell topo seed ~mrai ~frac))
          (fig1_opts seed).Scenarios.sizes)
      Scenarios.fig1_mrais
  | Paper_schemes ->
    List.map
      (fun (key, scheme, discipline) ->
        plain ~key (fun topo ->
            pin topo (Scenarios.flat (fig1_opts seed) ~scheme ~discipline ~frac:0.20 ())))
      [
        ("batching", Mrai.Static 0.5, Iq.Batched);
        ("dynamic", Scenarios.paper_dynamic, Iq.Fifo);
        ("batching+dynamic", Scenarios.paper_dynamic, Iq.Batched);
      ]
  | Churn_storm -> [ churn_trial seed ]
  | Chaos_campaign ->
    [ chaos_trial (chaos_config ~sidecar_dir ~seed:bench_seed) round ]

(* Figure 1 the way [Figures.fig01] builds it, one [Sweep.prefetch] per
   MRAI series and then [Sweep.point]s, but over the pinned topology. *)
let fig1 topo seed =
  let series mrai =
    let cells =
      List.map (fun frac -> (frac, fig1_cell topo seed ~mrai ~frac)) (fig1_opts seed).Scenarios.sizes
    in
    Sweep.prefetch (List.map (fun (_, s) -> (s, 1)) cells);
    note_pool ();
    {
      Figure.label = Printf.sprintf "MRAI=%g" mrai;
      points =
        List.map
          (fun (frac, s) ->
            Sweep.point s ~trials:1 ~x:(frac *. 100.0) ~metric:(fun r -> r.Runner.convergence_delay))
          cells;
    }
  in
  {
    Figure.id = "fig1";
    title = "Convergence delay for different sized failures";
    xlabel = "failure %";
    ylabel = "convergence delay (s)";
    series = List.map series Scenarios.fig1_mrais;
    paper_expectation = "";
  }

(* The warm-up-only twin: failure, churn, faults and trace removed. *)
let twin (s : Runner.scenario) =
  {
    s with
    Runner.failure = Runner.No_failure;
    churn = None;
    faults = None;
    net = { s.Runner.net with Network.trace = None };
  }

let updates (r : Runner.result) = r.Runner.warmup_messages + r.Runner.messages

(* --- JSON output --------------------------------------------------------- *)

let rec emit b = function
  | Json.Num x -> Buffer.add_string b x
  | Json.Str x -> Buffer.add_string b (Json.escape x)
  | Json.Bool x -> Buffer.add_string b (string_of_bool x)
  | Json.Null -> Buffer.add_string b "null"
  | Json.Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        emit b x)
      l;
    Buffer.add_char b ']'
  | Json.Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Json.escape k ^ ":");
        emit b x)
      kvs;
    Buffer.add_char b '}'

let print v =
  let b = Buffer.create 1024 in
  emit b v;
  print_endline (Buffer.contents b)

let num x = Json.Num (Json.float_lit x)
let int n = Json.Num (string_of_int n)

(* What one trial produced: the simulation outputs a pure speed-up must
   leave identical, and whether the trial counts as failed. *)
type obs = { upd : int; delay : float; converged : bool; ok : bool }

let obs_of (r : Runner.result) ~ok =
  { upd = updates r; delay = r.Runner.convergence_delay; converged = r.Runner.converged; ok }

let churn_ok (r : Runner.result) =
  match r.Runner.churn with Some c -> c.Churn.unconverged = 0 | None -> true

let sim_of obs =
  Json.Obj
    [
      ("updates", int (List.fold_left (fun a o -> a + o.upd) 0 obs));
      ( "convergence_delay_s",
        num (List.fold_left (fun a o -> a +. o.delay) 0.0 obs /. float_of_int (List.length obs)) );
      ("unconverged", int (List.length (List.filter (fun o -> not o.converged) obs)));
    ]

let gc_stats () =
  let g = Gc.quick_stat () in
  Json.Obj
    [
      ("minor_words", num g.Gc.minor_words);
      ("promoted_words", num g.Gc.promoted_words);
      ("major_collections", int g.Gc.major_collections);
      ("top_heap_words", int g.Gc.top_heap_words);
    ]

(* --- setup ----------------------------------------------------------------- *)

(* Input generation plus each trial's warm-up-only twin, per trial. *)
let setup workload ~seed ~round ~sidecar_dir =
  let samples =
    List.map
      (fun t ->
        let r, twin_s = time (fun () -> Runner.run (twin t.scenario)) in
        Json.Obj
          [
            ("key", Json.Str t.key);
            ("s", num (t.topology_s +. t.churn_gen_s +. t.fault_gen_s +. twin_s));
            ("converged", Json.Bool r.Runner.converged);
          ])
      (trials_of ~sidecar_dir workload ~seed ~round)
  in
  print (Json.Obj [ ("samples", Json.Arr samples) ])

(* --- timed pass ------------------------------------------------------------ *)

let merge_sidecars dir =
  let acc = Attr_merge.create () in
  Attr_merge.load ~jobs:1 acc (Attr_merge.plan dir);
  note_pool ();
  Attr_merge.report acc

(* A chaos trial fails on any battery violation, or when the merge of its
   sidecar loses or fails it; the reasons go to stderr. *)
let chaos_ok (o : Chaos.outcome) (m : Attr_merge.report) =
  List.iter
    (fun v ->
      Printf.eprintf "chaos trial seed %d: %s (%s)\n" o.Chaos.trial_seed v.Chaos.invariant
        v.Chaos.detail)
    o.Chaos.violations;
  let merged = m.Attr_merge.r_trials = 1 && m.Attr_merge.r_skipped = 0 && m.Attr_merge.r_fail = 0 in
  if not merged then
    Printf.eprintf "sidecar merge: %d trials, %d skipped, %d failing\n" m.Attr_merge.r_trials
      m.Attr_merge.r_skipped m.Attr_merge.r_fail;
  o.Chaos.converged && o.Chaos.violations = [] && merged

(* Returns the per-trial observations, the timed seconds, the process's
   GC figures and extra fields for the report. *)
let timed_pass workload ~seed ~round ~sidecar_dir =
  let trials = trials_of ~sidecar_dir workload ~seed ~round in
  List.iter (fun t -> note_sharding t.scenario) trials;
  match workload with
  | Paper_sweep ->
    let topo = pinned_topology () in
    let fig, run_s = time (fun () -> fig1 topo (base_seed ~seed ~round)) in
    let verdicts = Verdicts.check fig in
    let held = List.length (List.filter (fun v -> v.Verdicts.holds) verdicts) in
    (* Cache hits: [fig1] just ran these exact scenarios.  A failed shape
       verdict makes every trial of the grid count as failed. *)
    let obs =
      List.map
        (fun t ->
          match Sweep.results t.scenario ~trials:1 with
          | [ r ] -> obs_of r ~ok:(r.Runner.converged && Verdicts.all_hold verdicts)
          | _ -> failwith "Sweep.results: expected one trial")
        trials
    in
    let gc = gc_stats () in
    (obs, run_s, gc, [ ("verdicts_held", int held); ("verdicts", int (List.length verdicts)) ])
  | Paper_schemes | Churn_storm ->
    let run_s = ref 0.0 in
    let obs =
      List.map
        (fun t ->
          let r, s = time (fun () -> Runner.run t.scenario) in
          run_s := !run_s +. s;
          obs_of r ~ok:(r.Runner.converged && churn_ok r))
        trials
    in
    let gc = gc_stats () in
    (obs, !run_s, gc, [])
  | Chaos_campaign ->
    let o, trial_s = time (fun () -> Chaos.run_trial (chaos_config ~sidecar_dir ~seed) round) in
    let merge, merge_s = time (fun () -> merge_sidecars sidecar_dir) in
    let gc = gc_stats () in
    (* Chaos outcomes carry post-failure messages only: the warm-up
       updates come from the untimed twin, run after the GC figures are
       read so that those cover the workload alone. *)
    let warm = (Runner.run (twin (List.hd trials).scenario)).Runner.warmup_messages in
    let ok = chaos_ok o merge in
    ( [ { upd = warm + o.Chaos.messages; delay = o.Chaos.convergence_delay; converged = o.Chaos.converged; ok } ],
      trial_s +. merge_s,
      gc,
      [] )

let timed workload ~seed ~round ~sidecar_dir =
  let obs, run_s, gc, extra = timed_pass workload ~seed ~round ~sidecar_dir in
  print
    (Json.Obj
       ([
          ("ocaml", Json.Str Sys.ocaml_version);
          ("domains", int !domains_used);
          ("trials", int (List.length obs));
          ("failed", int (List.length (List.filter (fun o -> not o.ok) obs)));
          ("run_s", num run_s);
          ("sim", sim_of obs);
          ("gc", gc);
        ]
       @ extra))

(* --- Replays: one layer driven alone at the size the workload reached --- *)

let per_op_ns n f =
  let t0 = clock () in
  for i = 0 to n - 1 do
    f i
  done;
  (clock () -. t0) *. 1e9 /. float_of_int n

(* Hold model: every executed event schedules one more, so the queue
   stays at [depth] live events. *)
let scheduler_ns_per_event ~depth =
  let s = Sched.create () in
  let rng = Rng.create 7 in
  let delays = Array.init 4096 (fun _ -> Rng.float rng) in
  let k = ref 0 in
  let rec ev () =
    incr k;
    ignore (Sched.schedule s ~delay:delays.(!k land 4095) ev)
  in
  for i = 1 to max 1 depth do
    ignore (Sched.schedule s ~delay:delays.(i land 4095) ev)
  done;
  per_op_ns 2_000_000 (fun _ -> ignore (Sched.step s))

(* One push plus one pop per op, with the queue held near [depth]. *)
let queue_ns_per_op discipline ~depth ~dests ~srcs =
  let q = Iq.create discipline in
  let rng = Rng.create 11 in
  let items =
    Array.init 4096 (fun _ ->
        {
          Iq.src = Rng.int rng (max 1 srcs);
          dest = Rng.int rng (max 1 dests);
          payload = ();
          cause = -1;
          enqueued = 0.0;
        })
  in
  for i = 1 to max 1 depth do
    Iq.push q items.(i land 4095)
  done;
  per_op_ns 1_000_000 (fun i ->
      Iq.push q items.(i land 4095);
      ignore (Iq.pop q))

(* One Adj-RIB-In replacement plus the decision process, cycling over
   [peers] x [prefixes] entries of a filled RIB. *)
let rib_ns_per_update ~peers ~prefixes =
  let peers = max 1 peers and prefixes = max 1 prefixes in
  let tbl = Path.create_table () in
  let pool = Array.init 64 (fun i -> Path.of_list tbl (List.init (1 + (i mod 6)) (fun h -> 1 + (8 * i) + h))) in
  let rib = Rib.create ~asn:0 in
  let update i =
    let dest = i mod prefixes and peer = i / prefixes mod peers in
    Rib.set_in rib dest ~peer ~kind:Bgp_proto.Types.Ebgp pool.((i * 7) land 63);
    ignore (Rib.decide rib dest)
  in
  for i = 0 to (peers * prefixes) - 1 do
    update i
  done;
  per_op_ns 1_000_000 update

(* --- traced pass ----------------------------------------------------------- *)

let traced workload ~seed ~round ~sidecar_dir =
  let m = Hashtbl.create 64 in
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt m k) in
  let add k v = Hashtbl.replace m k (get k +. v) in
  let addi k n = add k (float_of_int n) in
  let maxi k n = Hashtbl.replace m k (Float.max (get k) (float_of_int n)) in
  let trials = trials_of ~sidecar_dir workload ~seed ~round in
  List.iter
    (fun t ->
      add "topology.gen_s" t.topology_s;
      add "churn.generate_s" t.churn_gen_s;
      add "fault_injector.generate_s" t.fault_gen_s;
      let r, s = time (fun () -> Runner.run (twin t.scenario)) in
      add "warmup.s" s;
      addi "warmup.updates" r.Runner.warmup_messages)
    trials;
  let inspect net =
    let mem = Network.memory_snapshot net in
    List.iter
      (fun (sm : Telemetry.shard_memory) ->
        addi "rib.entries" sm.Telemetry.rib_entries;
        addi "rib.bytes_est" sm.Telemetry.rib_bytes;
        addi "path.interned" sm.Telemetry.path_nodes;
        maxi "scheduler.max_live" sm.Telemetry.sched_max_live)
      mem.Telemetry.per_shard;
    let paths = Network.paths net in
    addi "path.hits" (Path.hit_count paths);
    addi "path.misses" (Path.unique_count paths)
  in
  let count (r : Runner.result) =
    addi "scheduler.events" r.Runner.events;
    addi "input_queue.eliminated" r.Runner.eliminated;
    maxi "input_queue.max_depth" r.Runner.max_queue;
    addi "mrai.transitions" r.Runner.mrai_transitions;
    addi "fault_injector.lost_messages" r.Runner.lost_messages;
    match r.Runner.churn with
    | None -> ()
    | Some c ->
      addi "churn.ops" c.Churn.ops;
      maxi "churn.queue_high_water" c.Churn.queue_high_water;
      Hashtbl.replace m "churn.settle_p99_sim_s" (Float.max (get "churn.settle_p99_sim_s") c.Churn.p99);
      addi "churn.unconverged" c.Churn.unconverged
  in
  let obs =
    match workload with
    | Paper_sweep | Paper_schemes | Churn_storm ->
      List.map
        (fun t ->
          let r, s = time (fun () -> Runner.run_with ~inspect t.scenario) in
          add "bench.pass_s" s;
          count r;
          obs_of r ~ok:(r.Runner.converged && churn_ok r))
        trials
    | Chaos_campaign ->
      (* The bench's own traced run of the trial, then the harness's
         trial: what the harness adds on top is the battery. *)
      let t = List.hd trials in
      let cfg = chaos_config ~sidecar_dir ~seed in
      let trace = Trace.create ~capacity:chaos_capacity () in
      let s =
        {
          t.scenario with
          Runner.faults = Some t.schedule;
          net = { t.scenario.Runner.net with Network.trace = Some trace };
        }
      in
      let r, run_s = time (fun () -> Runner.run_with ~inspect s) in
      count r;
      addi "trace.events" (Trace.length trace);
      addi "trace.dropped" (Trace.dropped trace);
      let events = Trace.events trace in
      let (), json_s = time (fun () -> List.iter (fun e -> ignore (Trace.event_to_json e)) events) in
      add "trace.to_json_s" json_s;
      let t_fail = match r.Runner.attribution with Some a -> a.Attribution.t_fail | None -> 0.0 in
      let attr, attr_s = time (fun () -> Attribution.of_trace ~t_fail trace) in
      add "attribution.of_trace_s" attr_s;
      addi "attribution.dests" (List.length attr.Attribution.per_dest);
      let o, trial_s = time (fun () -> Chaos.run_trial cfg round) in
      let replayed = cfg.Chaos.replay_every > 0 && round mod cfg.Chaos.replay_every = 0 in
      if replayed then addi "chaos.replays" 1;
      add "chaos.trial_s" trial_s;
      add "chaos.battery_s" (trial_s -. (if replayed then 2.0 else 1.0) *. run_s);
      let merge, merge_s = time (fun () -> merge_sidecars sidecar_dir) in
      add "attr_merge.load_s" merge_s;
      add "bench.pass_s" (run_s +. json_s +. attr_s +. trial_s +. merge_s);
      [ obs_of r ~ok:(chaos_ok o merge) ]
  in
  let t0 = (List.hd trials).scenario in
  let topo = Runner.topology_of t0 in
  let dests = Config.num_dests t0.Runner.net.Network.bgp ~n_ases:topo.Topology.n_ases in
  let peers = Graph.max_degree topo.Topology.graph in
  let depth = int_of_float (get "input_queue.max_depth") in
  add "scheduler.ns_per_event" (scheduler_ns_per_event ~depth:(int_of_float (get "scheduler.max_live")));
  add "input_queue.fifo_ns_per_op" (queue_ns_per_op Iq.Fifo ~depth ~dests ~srcs:peers);
  add "input_queue.batched_ns_per_op" (queue_ns_per_op Iq.Batched ~depth ~dests ~srcs:peers);
  add "rib.ns_per_update" (rib_ns_per_update ~peers ~prefixes:dests);
  print
    (Json.Obj
       [
         ("trials", int (List.length obs));
         ("failed", int (List.length (List.filter (fun o -> not o.ok) obs)));
         ("sim", sim_of obs);
         ( "layers",
           Json.Obj
             (List.sort compare (Hashtbl.fold (fun k v acc -> (k, num v) :: acc) m [])) );
       ])

let () =
  match Sys.argv with
  | [| _; mode; workload; seed; round |] ->
    Pool.set_default_jobs 1;
    let workload = workload_of_string workload in
    let seed = int_of_string seed and round = int_of_string round in
    let sidecar_dir = Sys.getenv "BGPBENCH_WORKDIR" in
    (match mode with
    | "setup" -> setup workload ~seed ~round ~sidecar_dir
    | "timed" -> timed workload ~seed ~round ~sidecar_dir
    | "traced" -> traced workload ~seed ~round ~sidecar_dir
    | m -> failwith ("unknown mode " ^ m))
  | _ ->
    prerr_endline "usage: bgpbench setup|timed|traced WORKLOAD SEED ROUND";
    exit 2
