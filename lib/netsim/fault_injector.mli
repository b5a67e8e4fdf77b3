(** Seeded, schedule-based fault injection beyond the paper's single
    contiguous failure: every fault in a trial is derived from the trial
    seed, so a chaos run is a pure function of [(seed, scenario)] and
    replays bit-identically — the property the swarm harness
    ({!Bgp_experiments.Chaos}) checks and the minimizer relies on.

    A {e schedule} is a time-sorted list of faults with onsets relative
    to the trial's failure time [t_fail].  {!install} arms them on the
    scheduler; each onset records a causal [Trace.Fault] root, and its
    heal/recover counterpart chains back to it, so attribution over a
    chaotic trial still telescopes exactly. *)

type fault =
  | Partition of { side : int list; heal_after : float }
      (** sever every session crossing the cut between [side] (sorted,
          unique) and the rest; restore them all [heal_after] later.
          Partitions always heal — {!validate} rejects non-positive or
          past-horizon heals. *)
  | Session_reset of { u : int; v : int; recover_after : float }
      (** one session flaps: down now, re-established (with a full-table
          re-sync) [recover_after] later *)
  | Gray_link of { u : int; v : int; loss : float; duration : float }
      (** lossy link: each message dropped independently with
          probability [loss] in (0, 1) for [duration] seconds *)
  | Link_jitter of { u : int; v : int; factor : float; duration : float }
      (** the link's one-way delay is multiplied by [factor] for
          [duration] seconds *)
  | Clock_skew of { router : int; skew : float }
      (** every delivery to [router] arrives [skew] seconds late from
          now on (receive-path clock offset) *)

type event = { at : float;  (** onset, seconds after [t_fail], [>= 0] *) fault : fault }

type schedule = event list
(** Sorted ascending by [at]. *)

val kind_of_fault : fault -> string
(** The fault-taxonomy tag ([partition], [session_reset], [gray_link],
    [link_jitter], [clock_skew]) — also the [Trace.Fault] label. *)

val kinds : schedule -> string list
(** Distinct fault kinds present, sorted (the campaign's shape-coverage
    report). *)

val pp_event : Format.formatter -> event -> unit

val validate : n:int -> horizon:float -> schedule -> (unit, string) result
(** Structural well-formedness for an [n]-router network: events sorted
    with [0 <= at <= horizon], every transient fault heals within the
    horizon, links and routers in range, probabilities and factors in
    their domains. *)

val generate :
  rng:Bgp_engine.Rng.t ->
  topo:Bgp_topology.Topology.t ->
  failure:Bgp_topology.Failure.t ->
  ?max_events:int ->
  horizon:float ->
  unit ->
  schedule
(** Derive a schedule from [rng] (pure: same stream, same schedule).
    Faults target the surviving part of the network: partition sides are
    BFS balls over the surviving session graph, link faults pick live
    sessions.  Draws [1 + U(max_events)] base events (default
    [max_events] 5), each spawning a correlated companion with
    probability 1/4; onsets land in [[0, horizon/2]] and durations fit
    the horizon, so the result always passes {!validate}. *)

val shrink : schedule -> schedule list
(** Structure-preserving shrink candidates: drop one event, halve a
    duration/loss/skew, pull a jitter factor towards 1, halve a
    partition side.  Every candidate of a valid schedule is valid (the
    QCheck property pins this); used as the minimizer's polish pass
    after ddmin. *)

val to_json : schedule -> Json_lite.t
(** A JSON array (one object per event), embedded in the chaos artifact. *)

val lookahead : link_delay:float -> schedule -> float
(** The engine's hard lookahead under this schedule: the smallest one-way
    delay any message can experience — [link_delay] scaled by the
    schedule's smallest jitter factor (clock skew is non-negative and
    only lengthens delays), clamped to the delivery path's [1e-6] floor.
    [link_delay] itself for a fault-free run. *)

val install : Network.t -> t_fail:float -> schedule -> unit
(** Arm the schedule: each event fires at [t_fail +. at], records its
    [Trace.Fault] root and applies the fault through the {!Network}
    hooks; heals/recoveries are scheduled and cause-chained to the
    onset.  Every event (and its heal) is replicated into {e every}
    shard's scheduler with preassigned trace ids, so each shard's
    replica fault tables evolve identically with no cross-shard reads;
    the shard owning a fault's representative router records the
    [Trace.Fault] events, and session notifications fire only on the
    owners of the affected endpoints.
    @raise Invalid_argument unless [Network.enable_faults] was called. *)
