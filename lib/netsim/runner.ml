module Sched = Bgp_engine.Scheduler
module Rng = Bgp_engine.Rng
module Profile = Bgp_engine.Profile
module Topology = Bgp_topology.Topology
module As_topology = Bgp_topology.As_topology
module Degree_dist = Bgp_topology.Degree_dist
module Failure = Bgp_topology.Failure

type topo_spec =
  | Flat of { spec : Degree_dist.spec; n : int }
  | Realistic of As_topology.config
  | Fixed of Topology.t

type failure_spec =
  | Fraction of float
  | Routers of int list
  | Links of (int * int) list
  | No_failure

type warmup_mode = Simulated | Analytic

type scenario = {
  topo : topo_spec;
  net : Network.config;
  failure : failure_spec;
  seed : int;
  validate : bool;
  warmup : warmup_mode;
  policies : bool;
  faults : Fault_injector.schedule option;
  sharding : int option;
  churn : Churn.schedule option;
  churn_window : float;
  dest_sample : int option;
}

let scenario ?(net = Network.config_default Bgp_proto.Config.default)
    ?(failure = No_failure) ?(seed = 1) ?(validate = false)
    ?(warmup = Simulated) ?(policies = false) ?faults ?sharding ?churn
    ?(churn_window = 0.5) ?dest_sample topo =
  {
    topo;
    net;
    failure;
    seed;
    validate;
    warmup;
    policies;
    faults;
    sharding;
    churn;
    churn_window;
    dest_sample;
  }

(* Simulated seconds each phase may run: a safety net; a run that hits it
   is flagged unconverged. *)
let phase_cap = 36000.0

type result = {
  converged : bool;
  warmup_delay : float;
  convergence_delay : float;
  messages : int;
  adverts : int;
  withdrawals : int;
  warmup_messages : int;
  eliminated : int;
  max_queue : int;
  mrai_transitions : int;
  events : int;
  lost_messages : int;
  survivors_connected : bool;
  issues : Validate.issue list;
  report : Telemetry.report option;
  attribution : Attribution.t option;
  churn : Churn.stats option;
}

let make_topology rng = function
  | Flat { spec; n } -> Topology.flat rng ~spec ~n
  | Realistic config -> As_topology.generate rng config
  | Fixed topo -> topo

let make_failure topo = function
  | Fraction f -> Failure.contiguous topo ~fraction:f
  | Routers l -> Failure.of_list topo l
  | Links _ | No_failure -> Failure.none topo

(* Seeded destination subsampling: narrow the config's active set to a
   [k]-subset by partial Fisher-Yates over the full prefix universe.  The
   stream is split only when sampling is requested (after the fault
   stream), so unsampled runs draw exactly what they always did. *)
let apply_dest_sample s topo rng_sample net_config =
  match (s.dest_sample, rng_sample) with
  | Some k, Some rng ->
    if k < 1 then invalid_arg "Runner.run: dest_sample must be >= 1";
    let bgp = net_config.Network.bgp in
    let universe = Bgp_proto.Config.num_dests bgp ~n_ases:topo.Topology.n_ases in
    if k >= universe then net_config
    else begin
      let arr = Array.init universe Fun.id in
      for i = 0 to k - 1 do
        let j = i + Rng.int rng (universe - i) in
        let tmp = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- tmp
      done;
      {
        net_config with
        Network.bgp = Bgp_proto.Config.with_dest_sample (Array.sub arr 0 k) bgp;
      }
    end
  | _ -> net_config

(* One trial on the windowed engine ([Network.run]), across
   [sharding] domains (default one).  Everything the shards do is keyed on
   layout-free values, so the result is bit-identical for any shard count
   — the test battery pins shards in {1, 2, 4} against each other. *)
let run_gen ?inspect s =
  let shards = Option.value ~default:1 s.sharding in
  if shards < 1 then invalid_arg "Runner.run: sharding must be >= 1";
  (* Wall-clock phase spans: reads of the monotonic clock only, so the
     run is bit-identical with profiling off and on. *)
  let rng_faults, topo, net_config, tele, net =
    Profile.within Build @@ fun () ->
    let root = Rng.create s.seed in
    let rng_topo = Rng.split root in
    let rng_net = Rng.split root in
    (* The fault stream is split only when a schedule is present: fault-free
       runs draw exactly what they always did (the goldens pin this), and a
       chaotic run is still a pure function of the seed. *)
    let rng_faults = Option.map (fun _ -> Rng.split root) s.faults in
    let rng_sample = Option.map (fun _ -> Rng.split root) s.dest_sample in
    let topo = make_topology rng_topo s.topo in
    (match Topology.validate topo with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Runner.run: bad topology: " ^ msg));
    let net_config =
      if s.policies then
        { s.net with Network.relationships = Some (Relationships.infer topo) }
      else s.net
    in
    let net_config = apply_dest_sample s topo rng_sample net_config in
    (* Telemetry lives per run: the config only carries the spec, the
       instance (and hence all recorded state) is private to this trial. *)
    let tele = Option.map Telemetry.create net_config.Network.telemetry in
    let owner =
      if shards = 1 then None
      else Some (Bgp_topology.Partition.compute ~shards ~seed:s.seed topo).owner
    in
    let lookahead =
      Fault_injector.lookahead ~link_delay:net_config.Network.link_delay
        (Option.value ~default:[] s.faults)
    in
    let net =
      Network.build ~shards ?owner ~lookahead ~rng:rng_net ~config:net_config
        ?telemetry:tele topo
    in
    (rng_faults, topo, net_config, tele, net)
  in
  (* Probe ticks ride the barrier windows: [at_barrier] runs
     single-threaded once per window with the window's start time, the
     only point where cross-shard router state is stable.  Tick times are
     therefore window starts (shard-count invariant), not an exact
     interval grid. *)
  let next_probe = ref infinity in
  let probe_hook t ~now =
    if now >= !next_probe then begin
      Network.probe_tick net t ~time:now;
      next_probe := now +. (Telemetry.conf t).Telemetry.probe_interval
    end
  in
  (* Phase 1: reach steady state — by cold-start simulation (as in the
     paper) or by direct analytic construction. *)
  Profile.within Warmup (fun () ->
      match s.warmup with
      | Simulated ->
        Network.start_all net;
        let at_barrier =
          match tele with
          | Some t when (Telemetry.conf t).Telemetry.probe_warmup ->
            next_probe := (Telemetry.conf t).Telemetry.probe_interval;
            Some (probe_hook t)
          | Some _ | None -> None
        in
        Network.run ?at_barrier net ~cap:phase_cap
      | Analytic ->
        if s.policies then invalid_arg "Runner.run: analytic warm-up is policy-free only";
        Warmup.install net);
  let warmup_converged = Network.pending net = 0 in
  let warmup_delay = Network.last_activity net in
  let warmup_messages = Network.messages_sent net in
  let warmup_adverts = Network.adverts_sent net in
  let warmup_withdrawals = Network.withdrawals_sent net in
  (if s.validate && warmup_converged then
     Validate.check_exn net ~failure:(Failure.none topo));
  (* Phase 2: the orchestrator (single-threaded, every domain parked)
     injects the failure at a time strictly above every shard clock, then
     releases the shards. *)
  let failure, t_fail, monitor =
    Profile.within Fail @@ fun () ->
    let failure = make_failure topo s.failure in
    let t_fail = Network.now net +. 1.0 in
    Network.inject_failure net ~at:t_fail failure;
    (match s.failure with
    | Links links -> Network.inject_link_failures net ~at:t_fail links
    | Fraction _ | Routers _ | No_failure -> ());
    (match (s.faults, rng_faults) with
    | Some schedule, Some rng ->
      Network.enable_faults net ~rng;
      Fault_injector.install net ~t_fail schedule
    | _ -> ());
    (* Steady-state churn: arm the workload ops as causal roots relative to
       [t_fail] and observe settle times + windowed throughput.  The hooks
       are pure observation, so the churn-free path schedules exactly what
       it always did. *)
    let monitor =
      match s.churn with
      | None -> None
      | Some schedule ->
        let m = Churn.monitor net ~t0:t_fail ~window:s.churn_window in
        Churn.install net ~t_fail schedule;
        Some (schedule, m)
    in
    (failure, t_fail, monitor)
  in
  let at_barrier =
    match tele with
    | Some t ->
      Telemetry.set_fail_time t t_fail;
      (* Baseline tick at the failure instant, then one per interval
         through re-convergence. *)
      Network.probe_tick net t ~time:t_fail;
      next_probe := t_fail +. (Telemetry.conf t).Telemetry.probe_interval;
      Some (probe_hook t)
    | None -> None
  in
  (* Throughput samples ride the barrier windows too. *)
  let at_barrier =
    match monitor with
    | None -> at_barrier
    | Some (_, m) ->
      let next_window = ref (t_fail +. s.churn_window) in
      let churn_hook ~now =
        if now >= !next_window then begin
          Churn.sample m net ~now;
          next_window := now +. s.churn_window
        end
      in
      (match at_barrier with
      | None -> Some churn_hook
      | Some f ->
        Some
          (fun ~now ->
            f ~now;
            churn_hook ~now))
  in
  Profile.within Converge (fun () ->
      Network.run ?at_barrier net ~cap:(t_fail +. phase_cap));
  Profile.within Finalize @@ fun () ->
  (* End-of-run hook: the chaos harness reads per-router queue/RIB state
     here, before the network goes out of scope.  Pure reads only. *)
  (match inspect with Some f -> f net | None -> ());
  let converged = warmup_converged && Network.pending net = 0 in
  let last = Network.last_activity net in
  let convergence_delay = Float.max 0.0 (last -. t_fail) in
  let churn_stats =
    Option.map (fun (schedule, m) -> Churn.stats m net ~schedule ~last_activity:last)
      monitor
  in
  let issues =
    (* Link failures change the graph underneath the survivor-BFS checks;
       only the router-failure invariants are validated. *)
    match s.failure with
    | Links _ -> []
    | Fraction _ | Routers _ | No_failure ->
      if s.validate && converged then Validate.check net ~failure else []
  in
  let metrics = Network.sum_metrics net in
  (* Post-hoc causal analysis of the traced run; pure read of the trace,
     so it cannot perturb anything above. *)
  let attribution =
    Option.map (fun trace -> Attribution.of_trace ~t_fail trace) net_config.Network.trace
  in
  (* Nothing records into the trace any more: release its spill file, so a
     traced batch holds open files only for the trials still running. *)
  Option.iter Trace.close net_config.Network.trace;
  (* Fold the component totals into the telemetry report (read at
     snapshot time below). *)
  (match (tele, attribution) with
  | Some t, Some attr ->
    let reg name v = Telemetry.register t ~name ~kind:Telemetry.Gauge (fun () -> v) in
    let open Attribution in
    reg "attr.queueing" attr.totals.queueing;
    reg "attr.processing" attr.totals.processing;
    reg "attr.mrai_hold" attr.totals.mrai_hold;
    reg "attr.propagation" attr.totals.propagation;
    reg "attr.critical_hops" (float_of_int (List.length attr.critical_path))
  | _ -> ());
  (* End-of-run memory snapshot: deterministic word-model estimates, so
     it may live inside the structurally-compared telemetry report. *)
  (match tele with
  | Some t -> Telemetry.set_memory t (Network.memory_snapshot net)
  | None -> ());
  if Profile.on () then
    for shard = 0 to shards - 1 do
      let ssched = Network.shard_sched net shard in
      Profile.counter_max
        (Printf.sprintf "sched.max_live.shard%d" shard)
        (Sched.max_live ssched);
      Profile.counter_max
        (Printf.sprintf "sched.slab_cap.shard%d" shard)
        (Sched.slab_capacity ssched)
    done;
  {
    converged;
    warmup_delay;
    convergence_delay;
    messages = Network.messages_sent net - warmup_messages;
    adverts = Network.adverts_sent net - warmup_adverts;
    withdrawals = Network.withdrawals_sent net - warmup_withdrawals;
    warmup_messages;
    eliminated = metrics.Bgp_proto.Router.eliminated;
    max_queue = metrics.Bgp_proto.Router.max_queue;
    mrai_transitions = metrics.Bgp_proto.Router.mrai_transitions;
    events = Network.events net;
    lost_messages = Network.lost_messages net;
    survivors_connected = Failure.survivors_connected topo failure;
    issues;
    report = Option.map Telemetry.report tele;
    attribution;
    churn = churn_stats;
  }

(* [run] keeps the plain [scenario -> result] arrow: it is passed
   first-class to [Pool.map], which an optional argument would break. *)
let run s = run_gen s
let run_with ~inspect s = run_gen ~inspect s

let topology_of s =
  let root = Rng.create s.seed in
  let rng_topo = Rng.split root in
  make_topology rng_topo s.topo

let failure_of s topo = make_failure topo s.failure

let trace_path ~base ~seed =
  let ext = Filename.extension base in
  Filename.remove_extension base ^ ".seed" ^ string_of_int seed ^ ext

let traced ?capacity ?spill_base s ~trials =
  if trials <= 0 then invalid_arg "Runner.traced: trials must be positive";
  List.init trials (fun i ->
      let seed = s.seed + i in
      let spill = Option.map (fun base -> trace_path ~base ~seed) spill_base in
      let trace = Trace.create ?capacity ?spill () in
      ({ s with seed; net = { s.net with Network.trace = Some trace } }, trace))

(* Archive a traced batch: every spilled trial becomes a finalized,
   self-describing trace file plus (by default) its bgp-attr-sidecar/1
   sidecar — the compact residue `analyze --merge` and `bgpsim serve`
   fold without ever re-reading the event JSONL. *)
let finalize_traced ?(sidecars = true) pairs results =
  let written = ref [] in
  List.iter2
    (fun ((s : scenario), trace) (r : result) ->
      match (Trace.spill_path trace, r.attribution) with
      | Some spill, Some attr ->
        Trace.finalize trace ~meta:{ Trace.seed = s.seed; t_fail = attr.Attribution.t_fail };
        if sidecars then begin
          let path = Attribution.sidecar_path spill in
          Attribution.write_sidecar path (Attribution.sidecar_of ~seed:s.seed attr);
          written := path :: !written
        end
      | _ -> Trace.close trace)
    pairs results;
  List.rev !written
