(** Wall-clock runtime profiler: per-domain span rings over a monotonic
    clock, plus named counters and per-domain GC deltas.

    The profiler observes the simulator, never the simulation: it reads
    {!now_ns} (CLOCK_MONOTONIC) and [Gc.quick_stat] only, so enabling it
    cannot perturb simulated state, RNG draws, or event ordering — runs
    are bit-identical with profiling off and on.

    Sessions are global: {!start} arms recording, {!stop} disarms it and
    returns everything recorded since.  Each domain lazily allocates its
    own recorder (via [Domain.DLS]) the first time it records, so the
    hot paths never contend on a lock; only {!stop} walks the registry.

    Two recording flavours:
    - {!record}: one ring entry per call — for coarse spans (a window's
      compute slice, a runner phase).  The ring wraps; overwritten
      entries are counted as dropped.
    - {!accum}: a per-domain running [(total_ns, count)] per span kind —
      for hot, tiny spans (a single mailbox post, one pool job) where a
      ring entry each would be noise.

    Callers should read {!on} once per batch and skip the clock reads
    entirely when disabled:
    {[
      let prof = Profile.on () in
      ...
      let t0 = if prof then Profile.now_ns () else 0L in
      work ();
      if prof then Profile.record Compute ~shard t0
    ]} *)

type span_kind =
  | Compute        (** [Scheduler.run_window] inside a shard's window *)
  | Barrier_wait   (** blocked in [Shard_exec.Barrier.wait] *)
  | Mailbox_drain  (** drain + sort + deliver of a window's mailboxes *)
  | Mailbox_post   (** posting one cross-shard message (accumulated) *)
  | Decide         (** shard 0 computing the next-window decision *)
  | Merge          (** moving shard trace events into the run's
                       trace at a barrier (accumulated) *)
  | Pool_job       (** running one job on a pool domain (accumulated) *)
  | Pool_wait      (** blocked on the pool's job queue (accumulated) *)
  | Build          (** topology generation + network build *)
  | Warmup         (** pre-failure convergence phase *)
  | Fail           (** failure-injection instant *)
  | Converge       (** post-failure run to quiescence *)
  | Finalize       (** attribution, telemetry export, reporting *)

val span_name : span_kind -> string
(** Stable lower-snake name used in JSON and flamegraph output. *)

val phase_kind : span_kind -> bool
(** Phases ([Build]..[Finalize]) structurally contain the other spans
    recorded on the same domain; reporters use this to compute phase
    self-time and to keep leaf-span sums comparable to wall time. *)

(** {1 Recording} *)

val start : unit -> unit
(** Arm the profiler and reset all state.  Recorders from a previous
    session are discarded. *)

val on : unit -> bool
(** Whether a session is armed ([Atomic.get]; safe from any domain). *)

val now_ns : unit -> int64
(** CLOCK_MONOTONIC in nanoseconds (reads the clock even when off). *)

val record : span_kind -> ?shard:int -> int64 -> unit
(** [record kind ~shard t0] appends a [(kind, shard, t0, now)] span to
    the calling domain's ring.  [shard] defaults to [-1] (no shard).
    No-op when the profiler is off. *)

val accum : span_kind -> int64 -> unit
(** [accum kind t0] adds [now - t0] to the calling domain's running
    total for [kind].  No-op when the profiler is off. *)

val counter_add : string -> int -> unit
(** Add to a named global counter (created at 0).  Thread-safe. *)

val counter_max : string -> int -> unit
(** Raise a named global counter to at least the given value. *)

(** {1 Reports} *)

type span = { kind : span_kind; shard : int; t0_ns : int64; t1_ns : int64 }

type accum_entry = { a_kind : span_kind; a_ns : int64; a_count : int }

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  heap_words : int;  (** absolute, at [stop] — not a delta *)
}

type domain_report = {
  dom : int;          (** [Domain.self] id *)
  spans : span list;  (** oldest first *)
  dropped : int;      (** ring overwrites *)
  accums : accum_entry list;
  gc : gc_delta;
}

type report = {
  wall_ns : int64;  (** [stop] minus [start] on the monotonic clock *)
  domains : domain_report list;  (** sorted by [dom] *)
  counters : (string * int) list;  (** sorted by name *)
}

val stop : unit -> report option
(** Disarm and collect.  [None] if no session was armed. *)

(** {1 Rendering} *)

val to_json : report -> string
(** Schema [bgp-prof/1]: wall time, per-domain span aggregates (total
    seconds, count, max seconds per [(kind, shard)]), accumulators, GC
    deltas, and counters. *)

val to_flamegraph : report -> string
(** Wall-time collapsed stacks, one per line: leaf spans render as
    [domainD;shardS;kind count_us] ([domainD;kind] when shard-less);
    phases render as [domainD;kind self_us] where self-time subtracts
    any leaf span recorded on the same domain whose start falls inside
    the phase. *)

val summarize : report -> (string * float * int) list
(** Flat [(label, seconds, count)] rows ("domain0/shard1/compute"),
    aggregated like {!to_json} — for embedding in bench reports without
    depending on this module's types. *)

val queue_wait_ns : report -> int64
(** Cumulative {!Pool_wait} across all domains. *)
