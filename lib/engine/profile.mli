(** Wall-clock runtime profiler: exact per-[(kind, shard)] span totals
    over a monotonic clock, named counters, and one GC delta per session.

    The profiler observes the simulator, never the simulation: it reads
    {!now_ns} (CLOCK_MONOTONIC) and [Gc.quick_stat] only, so it cannot
    perturb simulated state, RNG draws or event ordering — runs are
    bit-identical with profiling off and on.

    Sessions are global: {!start} arms recording, {!stop} disarms it and
    returns everything recorded since.  Each domain lazily allocates its
    own recorder (via [Domain.DLS]), so the hot paths never contend on a
    lock; only {!stop} walks the registry.

    Spans open and close on one domain and nest there.  A closing span
    adds its duration to its [(kind, shard)] total, count and max, and to
    the child time of the span it closed inside, so self-times are exact
    and nothing is stored per span.  Hot loops read {!on} once and guard
    the bare pair, which allocates nothing:
    {[
      let prof = Profile.on () in
      if prof then Profile.enter Compute ~shard;
      work ();
      if prof then Profile.leave ()
    ]} *)

type span_kind =
  | Compute        (** [Scheduler.run_window] inside a shard's window *)
  | Barrier_wait   (** blocked in [Shard_exec.Barrier.wait] *)
  | Mailbox_drain  (** drain + sort + deliver of a window's mailboxes *)
  | Mailbox_post   (** posting one cross-shard message *)
  | Decide         (** shard 0 computing the next-window decision *)
  | Merge          (** moving shard trace events into the run's trace *)
  | Pool_job       (** running one job on a pool domain *)
  | Pool_wait      (** blocked on the pool's job queue *)
  | Build          (** topology generation + network build *)
  | Warmup         (** pre-failure convergence phase *)
  | Fail           (** failure-injection instant *)
  | Converge       (** post-failure run to quiescence *)
  | Finalize       (** attribution, telemetry export, reporting *)

(** {1 Recording} *)

val start : unit -> unit
(** Arm the profiler and reset all state.  Recorders from a previous
    session are discarded. *)

val on : unit -> bool
(** Whether a session is armed ([Atomic.get]; safe from any domain). *)

val now_ns : unit -> int64
(** CLOCK_MONOTONIC in nanoseconds (reads the clock even when off). *)

val enter : span_kind -> shard:int -> unit
(** Open a span on the calling domain, inside the innermost span still
    open there.  [shard] is [-1] for a span that belongs to no shard.
    No-op when the profiler is off. *)

val leave : unit -> unit
(** Close the calling domain's innermost open span.  No-op when the
    profiler is off or no span is open. *)

val within : span_kind -> (unit -> 'a) -> 'a
(** [within kind f] runs [f] inside a shard-less span of [kind] and
    closes the span also when [f] raises.  Just [f ()] when off. *)

val counter_max : string -> int -> unit
(** Raise a named global counter (created at 0) to at least the given
    value.  Thread-safe; no-op when the profiler is off. *)

(** {1 Reports} *)

type span_total = {
  kind : span_kind;
  shard : int;  (** [-1]: no shard *)
  total_ns : int;
  self_ns : int;  (** [total_ns] minus the spans closed inside these *)
  count : int;
  max_ns : int;
}

type domain_report = {
  dom : int;  (** [Domain.self] id *)
  spans : span_total list;  (** sorted by kind, then shard *)
}

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  heap_words : int;  (** absolute, at [stop] — not a delta *)
}

type report = {
  wall_ns : int;  (** [stop] minus [start] on the monotonic clock *)
  gc : gc_delta;
      (** [stop] minus [start] on the session's domain, which by then
          has joined the workers and folded in their counts *)
  domains : domain_report list;  (** sorted by [dom] *)
  counters : (string * int) list;  (** sorted by name *)
}

val stop : unit -> report option
(** Disarm and collect.  [None] if no session was armed. *)

(** {1 Rendering} *)

val to_json : report -> string
(** Schema [bgp-prof/2]: wall time, the session's GC delta, counters,
    and per domain one row per [(kind, shard)] with total and self
    seconds, count and max seconds. *)

val to_flamegraph : report -> string
(** Wall-time collapsed stacks, one line per row:
    [domainD;shardS;kind self_us] ([domainD;kind self_us] when
    shard-less).  Values are self-times, so a domain's lines sum to its
    top-level spans, which is at most the wall time. *)
