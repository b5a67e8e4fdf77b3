(** Conservative parallel event execution over per-shard slab schedulers.

    One simulation is split across [shards] {!Scheduler} instances, each
    driven by its own OCaml 5 domain.  Synchronization is
    null-message-free and barrier-windowed: all inter-shard interaction
    goes through per-edge mailboxes whose messages can never take effect
    sooner than [lookahead] simulated seconds after they were posted (in
    the BGP simulator the 25 ms one-way link delay).  Each round the
    executor

    + drains every mailbox, handing the incoming messages to [deliver]
      in the order of the caller's shard-count-invariant comparator;
    + agrees on the next window [[start, start + lookahead)] where
      [start] is the global minimum next-event time — windows {e jump},
      so an idle stretch costs one barrier, not a busy-wait;
    + lets every shard run its own scheduler freely inside the window
      ({!Scheduler.run_window}): within a window no shard can affect
      another, so no locks are taken on the hot path.

    Determinism: the caller keys its comparator on values that do not
    depend on the shard layout (the simulator uses
    [(arrival time, source router, per-source sequence)]), every mailbox
    is drained at a globally-agreed barrier, and window boundaries are a
    pure function of event times — so the full delivery schedule, and
    hence the simulation, is bit-identical for any shard count.
    See DESIGN.md §11. *)

type 'msg t

val create : shards:int -> compare:('msg -> 'msg -> int) -> 'msg t
(** [compare] must be a total order on messages, independent of the shard
    layout.  @raise Invalid_argument if [shards < 1]. *)

val shards : 'msg t -> int

val sched : 'msg t -> int -> Scheduler.t
(** Shard [i]'s scheduler.  Outside {!run_phase} the caller (a
    single-threaded orchestrator) may schedule onto any of them; during a
    phase each is private to its domain. *)

val post : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Append to the [src -> dst] mailbox.  Lock-free: only shard [src]'s
    domain (or the orchestrator, between phases) may post on that edge.
    The message is delivered — in [compare] order, via [deliver] — at the
    next barrier, so its effect time must be at least [lookahead] after
    the posting shard's current time.  A mailbox whose posts arrive in
    [compare] order is delivered without a sort. *)

val run_phase :
  'msg t ->
  lookahead:float ->
  cap:float ->
  deliver:(int -> 'msg -> unit) ->
  ?at_barrier:(now:float -> unit) ->
  unit ->
  unit
(** Run windows until no shard holds an event at time [<= cap] (pending
    events beyond [cap] remain queued, mirroring
    [Scheduler.run ~until:cap]).  [deliver dst m] runs on shard [dst]'s
    domain between windows, once per message, in [compare] order; it
    must only touch shard [dst]'s state and scheduler (and never post).  [at_barrier]
    runs single-threaded (all other domains parked at a barrier) once
    per window with the window's start time — the telemetry-probe hook.
    With [shards = 1] the phase runs inline, no domain is spawned.
    An exception in any shard stops the phase at the next barrier and is
    re-raised (lowest shard index wins) after all domains joined. *)

val now : 'msg t -> float
(** Max clock over shards: the time of the last executed event. *)

val pending : 'msg t -> int
(** Total live events over all shards (mailboxes are always empty between
    phases — every [run_phase] round drains them before deciding). *)

val events_executed : 'msg t -> int
(** Total events executed over all shards. *)

(** The sense-reversing barrier used between windows, exposed for
    microbenchmarks. *)
module Barrier : sig
  type t

  val create : int -> t
  (** [create parties].  @raise Invalid_argument if [parties < 1]. *)

  val wait : t -> unit
  (** Block until all [parties] domains arrive.  Reusable immediately;
    a single-party barrier returns without synchronizing. *)
end
