(** Sustained-load churn workloads: seeded, open-ended schedules of
    announce/withdraw operations against locally-originated prefixes,
    driven through the same causal machinery as {!Fault_injector}.

    Where the one-shot harness injects a single failure and waits for
    quiet, a churn schedule keeps the network under route churn for a
    configurable span — Poisson update arrivals, withdraw/re-announce
    flap storms, staged failover waves — and the monitor measures what
    the paper's mechanisms trade off under load: sustained update
    throughput, queue depth, and per-prefix convergence-delay tails.

    Every schedule is a pure function of [(rng, config, topo, workload)]
    and replays bit-identically; every op fires as a causal [Trace.Fault]
    root ([churn_announce] / [churn_withdraw]), so attribution over a
    churn trial telescopes exactly like a fault trial.  Schedules always
    end with every touched prefix re-announced, so a quiesced run settles
    back to a checkable steady state. *)

type op = Announce | Withdraw

type event = { at : float;  (** seconds after [t_fail], [>= 0] *) router : int; dest : int; op : op }

type schedule = event list
(** Sorted ascending by [at]; per (router, dest) the ops alternate
    starting from the announced steady state and end announced. *)

type workload =
  | Poisson of { rate : float;  (** expected ops/second *) duration : float; prefixes : int }
      (** memoryless announce/withdraw arrivals over [prefixes] seeded
          targets for [duration] seconds; open flaps close at the horizon *)
  | Flap_storm of { prefixes : int; flaps : int; hold : float; spread : float }
      (** every target withdraw/re-announces [flaps] times with [hold]
          seconds down per flap, start times staggered over [spread] *)
  | Staged_failover of { stages : int; gap : float; prefixes : int }
      (** targets split into [stages] waves; wave [k] withdraws in a
          burst at [k * gap] and re-announces half a gap later *)

val kind_of_workload : workload -> string
(** [poisson], [flap_storm] or [staged_failover] — the report tag. *)

val op_label : op -> string

val pp_event : Format.formatter -> event -> unit

val horizon : schedule -> float
(** Largest onset (0 for an empty schedule). *)

val validate :
  config:Bgp_proto.Config.t ->
  topo:Bgp_topology.Topology.t ->
  horizon:float ->
  schedule ->
  (unit, string) result
(** Structural well-formedness: sorted onsets in [[0, horizon]], routers
    and destinations in range, every op at a router of the destination's
    origin AS, no sampled-out destinations, strict withdraw/announce
    alternation per (router, dest) ending all-announced. *)

val generate :
  rng:Bgp_engine.Rng.t ->
  config:Bgp_proto.Config.t ->
  topo:Bgp_topology.Topology.t ->
  workload ->
  schedule
(** Derive a schedule from [rng] (pure: same stream, same schedule).
    Targets are [prefixes] distinct active destinations drawn by partial
    Fisher-Yates, each paired with a seeded originating router of its
    origin AS.  The result always passes {!validate} against the same
    [config] at [horizon ~=] the workload's natural span. *)

val prefix_counts :
  rng:Bgp_engine.Rng.t -> n_ases:int -> mean:float -> max_prefixes:int -> int array
(** Heavy-tailed per-AS origination counts (bounded discretized Pareto,
    every AS >= 1): feed to {!Bgp_proto.Config.with_prefix_plan}. *)

val shrink : schedule -> schedule list
(** Structure-preserving shrink candidates: drop one complete
    withdraw/announce cycle, or halve every onset.  Every candidate of a
    valid schedule is valid (QCheck-pinned). *)

val to_json : schedule -> string
(** JSON array, one object per op (embedded in the churn artifact). *)

val churn_id_base : int
(** Preassigned trace-id block of churn roots ([2 * Network.first_root_id]),
    disjoint from {!Fault_injector}'s. *)

val install : Network.t -> t_fail:float -> schedule -> unit
(** Arm every op at [t_fail +. at], only on the shard owning its router
    (ops are never replicated, so counts need no normalisation).  Each op
    records its [Trace.Fault] root with a preassigned id (a no-op when
    untraced — churn does not require [Network.enable_faults]) and
    drives the origin router's decision process through
    {!Bgp_proto.Router.announce_origin} / [withdraw_origin]. *)

(** {2 Steady-state monitor} *)

type monitor
(** Observes one run: per-prefix settle times through
    {!Bgp_proto.Router.set_rib_change_hook} (pure observation — installing
    the monitor never perturbs the simulation) plus windowed cumulative
    message samples. *)

val monitor : Network.t -> t0:float -> window:float -> monitor
(** Install hooks on every router; call between warm-up and the load
    phase.  [t0] is the load epoch ([t_fail]), [window] the throughput
    sampling width in seconds. *)

val sample : monitor -> Network.t -> now:float -> unit
(** Record one cumulative-throughput sample; the runner calls this from
    {!Network.run}'s barrier hook, so samples fall on window starts,
    which are shard-count invariant. *)

type stats = {
  ops : int;  (** schedule length *)
  workload_horizon : float;  (** largest onset offset *)
  span : float;  (** [t0] to the last route-affecting action *)
  updates_processed : int;  (** messages processed during the load phase *)
  sustained_rate : float;  (** [updates_processed / span], per second *)
  peak_window_rate : float;  (** best single-window throughput *)
  windows : int;  (** throughput samples taken *)
  queue_high_water : int;  (** max input-queue depth across routers *)
  disturbed : int;  (** distinct prefixes the schedule touched *)
  unconverged : int;
      (** disturbed prefixes whose post-quiesce forwarding walk loops or
          breaks (routelessness under partition is not counted) *)
  tails : Delay_hist.t;
      (** per-prefix settle delay: last Loc-RIB revision anywhere minus
          the prefix's last scheduled disturbance *)
  p50 : float;
  p95 : float;
  p99 : float;
}

val stats : monitor -> Network.t -> schedule:schedule -> last_activity:float -> stats
(** Fold the monitor's observations after the run; deterministic for a
    deterministic run (per-shard settle slabs merge by max, histogram
    insertion commutes). *)
