(** Causal event tracing: a bounded ring buffer of typed simulation events
    with per-event ids and cause pointers, for debugging and post-hoc
    convergence-delay attribution ({!Attribution}).

    Every recorded event carries a unique [id] (the network allocates
    per-router strided ids, see {!Network}; ids are not ordered by time)
    and a [cause]: the id of the event that directly triggered it, or
    [no_cause] for roots (failure injections, origination-time sends).
    The network records events in [(time, id)] order, so a cause
    precedes its effect in the trace — except a churn root, whose
    preassigned id sorts after the same-time sends it triggers.  The cause
    chain is what {!Attribution} walks to recover the critical path from a
    failure to the last route change.

    Recording is O(1) and allocation-light; attach one through
    {!Network.config}.  When the ring would overwrite its oldest event,
    the event is either spilled to a JSONL file (when [spill] was given —
    nothing is lost) or dropped and counted. *)

val no_cause : int
(** The cause id of a root event ([-1]). *)

type event =
  | Update_sent of {
      id : int;
      time : float;
      src : int;
      dst : int;
      update : Bgp_proto.Types.update;
      cause : int;
          (** the [Processed] completion, [Mrai_flush] or origination
              ([no_cause]) that emitted this update *)
    }
  | Update_delivered of {
      id : int;
      time : float;
      src : int;
      dst : int;
      update : Bgp_proto.Types.update;
      cause : int;  (** the matching [Update_sent]; gap = link propagation *)
    }
  | Processed of {
      id : int;
      time : float;  (** processing completed *)
      router : int;
      src : int;  (** sender of the work item *)
      dest : int;  (** destination of the update; [-1] for peer-down work *)
      enqueued : float;  (** when the item entered the input queue *)
      started : float;  (** when the CPU began serving it *)
      cause : int;
          (** the [Update_delivered] (or [Session_down] for peer-down
              work) that enqueued the item *)
    }
  | Mrai_flush of {
      id : int;
      time : float;  (** the timer fired and the destination was flushed *)
      router : int;
      peer : int;
      dest : int;
      ready : float;
          (** when the export became MRAI-eligible (last marked pending);
              [time -. ready] is the MRAI hold *)
      cause : int;  (** the event that last marked the destination pending *)
    }
  | Router_failed of { id : int; time : float; router : int }
  | Session_down of {
      id : int;
      time : float;
      router : int;  (** noticed its session to [peer] drop *)
      peer : int;
      cause : int;
          (** the [Router_failed] detected, [no_cause] for a link
              failure, or the [Fault] that severed the link *)
    }
  | Session_up of {
      id : int;
      time : float;
      router : int;  (** re-established its session to [peer] *)
      peer : int;
      cause : int;  (** the [Fault] (heal/recover) that restored the link *)
    }
  | Fault of {
      id : int;
      time : float;
      label : string;
          (** fault-taxonomy tag from {!Fault_injector} ([partition],
              [heal], [session_reset], ...) *)
      router : int;  (** a representative router of the faulted component *)
      cause : int;
          (** [no_cause] for a scheduled fault onset; the onset's id for
              its heal/recover counterpart *)
    }

val id_of : event -> int
val time_of : event -> float

val cause_of : event -> int
(** [no_cause] for [Router_failed]. *)

val router_of : event -> int
(** The router where the event's latency was incurred: the sender for
    [Update_sent], the receiver for [Update_delivered], the processing /
    flushing / noticing router otherwise. *)

val dest_of : event -> int option
(** The destination prefix the event is about: the update's destination
    for sends/deliveries/flushes and for update-processing completions;
    [None] for failure events and peer-down work items. *)

val terminals_by_dest : event list -> (int * event) list
(** Index the {e terminal} event of each destination: for every
    destination with at least one event, the latest event about it (max
    [(time, id)], the same tie-break {!Attribution} uses for the
    network-wide terminal).  Sorted by destination. *)

val pp_event : Format.formatter -> event -> unit

type t

val create : ?capacity:int -> ?spill:string -> unit -> t
(** Ring buffer; default capacity 100_000 events.  When full, the oldest
    event is overwritten: with [spill] it is first appended to the JSONL
    file at that path (created/truncated here) and counted in [spilled];
    without it the event is lost and counted in [dropped].
    @raise Invalid_argument if [capacity <= 0]. *)

val record : t -> event -> unit

val length : t -> int
(** Events currently held in memory. *)

val capacity : t -> int
(** The ring capacity [create] was given. *)

val dropped : t -> int
val spilled : t -> int

val spill_path : t -> string option

val to_list : t -> event list
(** In-memory events, oldest first (excludes spilled events). *)

val events : t -> event list
(** The complete record, oldest first: spilled events read back from the
    JSONL file, then the in-memory ring.  Flushes the sink first.
    @raise Failure if a spilled line does not parse (file tampered). *)

val close : t -> unit
(** Flush and close the spill sink.  Further overwrites count as
    [dropped].  Idempotent; a no-op without a sink. *)

val count : t -> pred:(event -> bool) -> int

val sends_by_router : t -> (int * int) list
(** [(router, updates sent)] sorted by count, busiest first (in-memory
    events only). *)

val between : t -> lo:float -> hi:float -> event list
(** In-memory events with [lo <= time < hi], oldest first. *)

val dump : ?limit:int -> Format.formatter -> t -> unit
(** Print the most recent [limit] (default 50) in-memory events. *)

val clear : t -> unit
(** Drop all events (and truncate the spill file, if any).  Ids keep
    counting. *)

(** {2 Per-trial trace files}

    A finalized trace file is the complete, self-describing record of one
    trial: every event in order as JSONL plus one trailing meta line
    carrying the trial's seed and failure time.  {!Runner.trace_path}
    derives a seed-suffixed path per trial, so traced trials of a sweep
    parallelize (no shared file) and {!Attribution.merge} can combine
    them afterwards. *)

type run_meta = { seed : int; t_fail : float }

val meta_to_json : run_meta -> string
(** One JSONL line ([{"type":"meta",...}]), no trailing newline. *)

val finalize : t -> meta:run_meta -> unit
(** Close the sink, append the in-memory tail and the meta line to the
    spill file — making the file the complete record — and empty the
    ring (so {!events}, which re-reads the file, stays duplicate-free).
    @raise Invalid_argument if the trace has no spill file. *)

val read_file :
  paths:Bgp_proto.Path.table ->
  string ->
  (run_meta option * event list, string) result
(** Read a trace file back: events in file order plus the meta line if
    present ([None] for a bare spill file that was never finalized).
    [Error] — never an exception — for an unreadable, empty, truncated
    or otherwise malformed file; the message names the file and line. *)

(** {2 JSONL serialization} *)

val event_to_json : event -> string
(** One line, no trailing newline. *)

val event_of_json :
  paths:Bgp_proto.Path.table -> string -> (event, string) result
(** Parse a line emitted by {!event_to_json}; AS paths are re-interned
    into [paths]. *)
