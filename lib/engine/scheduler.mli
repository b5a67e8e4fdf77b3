(** Discrete-event scheduler: the simulation kernel.

    Events are closures executed at a simulated instant.  Ties are broken
    by scheduling order, so a run is fully deterministic.  This plays the
    role SSFNet's kernel played for the paper.

    Internally the queue is an array-slab: callbacks sit in a growable
    slot array with a free-list, the heap is parallel arrays with the
    time key inline (no per-event record, no hash-table lookup per
    executed event), and ids are generation-tagged so [cancel] stays a
    safe no-op on stale handles.  See DESIGN.md "Performance". *)

type t

type event_id
(** Handle for cancellation.  Each [schedule] returns a fresh id. *)

val create : unit -> t

val now : t -> float
(** Current simulated time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t +. delay].
    Requires [delay >= 0]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** Absolute-time variant.  Requires [time >= now t]. *)

val cancel : t -> event_id -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val pending : t -> int
(** Number of live (not cancelled, not yet fired) events. *)

val step : t -> bool
(** Execute the next event.  [false] if the queue was empty. *)

val run : ?until:float -> t -> unit
(** Drain the event queue.  With [~until], stop before executing any event
    scheduled strictly after [until] (the clock then reads the time of the
    last executed event). *)

val next_time : t -> float option
(** Timestamp of the earliest live event, without executing it.
    [None] if the queue is empty. *)

val run_window : t -> stop:float -> cap:float -> unit
(** Execute every live event with time strictly below [stop] and at most
    [cap].  The conservative-window primitive: a shard drains its slab up
    to the window boundary and no further. *)

val events_executed : t -> int

val max_live : t -> int
(** Slab occupancy high-water: the most events simultaneously pending
    since [create].  Always tracked (one compare per [schedule]); the
    profiler and telemetry read it at finalize. *)

val slab_capacity : t -> int
(** Current size of the callback slab (grows by doubling, never
    shrinks) — with {!max_live} this bounds the queue's memory. *)
