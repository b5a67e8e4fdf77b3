(** Deterministic chaos campaign: thousands of seeded fault-injection
    trials ({!Bgp_netsim.Fault_injector}) across {!Bgp_engine.Pool}
    domains, an invariant battery on every trial, and delta-debugging
    minimization of the fault schedule when one fails.

    Everything is a pure function of the base seed: trial [i] uses seed
    [base.seed + i], derives its schedule from that seed, and digests its
    full result + trace; the campaign fingerprint digests all trials, so
    two campaigns from the same seed must be bit-identical regardless of
    [--jobs].

    The battery per trial:
    - [converged] — the run drained before the cap (or is diagnosed);
    - [telescoping] / [telescoping_dest] — attribution components sum
      exactly (1e-6) to the measured delay, network-wide and per prefix;
    - [attribution_complete] / [orphan_root] / [cause_order] — every
      post-failure causal root is an injection ([Router_failed],
      [Session_down], [Fault]) and every cause precedes its effect in
      the trace's (time, id) order;
    - [conservation] — traced sends = deliveries + in-flight losses;
    - [queue_drain] / [rib_conservation] — after convergence no survivor
      holds queued work or routes learned from a dead router;
    - [replay_identity] — every k-th trial reruns and must digest
      identically;
    - [seeded_violation] — self-test hook ({!config}[ ~seed_violation])
      that declares gray-link schedules violating so the minimization
      path itself is exercised in CI. *)

type violation = { invariant : string; detail : string }

type outcome = {
  trial : int;
  trial_seed : int;
  schedule : Bgp_netsim.Fault_injector.schedule;
  kinds : string list;
  converged : bool;
  convergence_delay : float;
  messages : int;
  lost : int;
  digest : string;
      (** hex digest of the result fields + every trace event — the
          replay-identity witness *)
  violations : violation list;  (** empty = all invariants green *)
}

type minimized = {
  m_trial_seed : int;
  m_schedule : Bgp_netsim.Fault_injector.schedule;
  m_invariants : string list;  (** invariants the minimal schedule still violates *)
  m_original_events : int;
}

type campaign = {
  outcomes : outcome list;  (** in trial order *)
  kinds_seen : string list;  (** distinct fault kinds across all trials *)
  fingerprint : string;  (** digest over all trial digests *)
  minimized : minimized option;
      (** the first violating trial's schedule, ddmin-reduced and
          shrink-polished; [None] when every trial is green (or the
          violation does not reproduce schedule-deterministically,
          e.g. a pure replay mismatch) *)
}

type config = {
  base : Bgp_netsim.Runner.scenario;
  trials : int;
  max_events : int;
  horizon : float;
  replay_every : int;
  capacity : int;
  seed_violation : bool;
  sidecar_dir : string option;
      (** when set, every trial writes its
          {!Bgp_netsim.Attribution.sidecar} (attribution + the battery's
          violated-invariant names) into this directory as
          [chaos.seedN.attr.json], atomically as it finishes — the hook
          that makes a running campaign observable by [bgpsim serve] and
          mergeable by [analyze --merge] without any trace files *)
}

val config :
  ?trials:int ->
  ?max_events:int ->
  ?horizon:float ->
  ?replay_every:int ->
  ?capacity:int ->
  ?seed_violation:bool ->
  ?sidecar_dir:string ->
  Bgp_netsim.Runner.scenario ->
  config
(** Defaults: 100 trials, 5 base events, 8 s horizon, replay every 10th
    trial, 500k-event trace rings, no seeded violation, no sidecars.
    The base scenario's [faults] and [net.trace] are overridden per
    trial.
    @raise Invalid_argument if [trials <= 0]. *)

val schedule_for : config -> Bgp_netsim.Runner.scenario -> Bgp_netsim.Fault_injector.schedule
(** The schedule trial seed [s.seed] derives (pure; exposed for tests). *)

val run_trial : config -> int -> outcome
(** Run trial [i] (seed [base.seed + i]): derive the schedule, run
    traced with the injector armed, check the battery, replay if due. *)

val run_campaign : ?jobs:int -> config -> campaign
(** All trials over the pool (default {!Bgp_engine.Pool.default_jobs}),
    then minimization of the first violating trial, if any.  Outcomes
    are input-ordered, so the result is independent of [jobs]. *)

val violating : campaign -> outcome list

val minimize : config -> outcome -> minimized option
(** ddmin over the outcome's schedule against the full battery rerun,
    then {!Bgp_netsim.Fault_injector.shrink} polish; [None] if the
    violation does not reproduce from the schedule alone. *)

val artifact_to_json : config -> campaign -> string
(** The [bgp-chaos/1] artifact: seed, fingerprint, kinds seen, violating
    trials (capped at 20, with schedules) and the minimized reproducer. *)

val pp_campaign : Format.formatter -> campaign -> unit
