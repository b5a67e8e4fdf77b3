(** Assembles a BGP network over a topology and carries messages.

    Sessions: every inter-AS link is an eBGP session; routers inside one
    AS form a full iBGP mesh (intra-AS physical links matter only for
    geography).  All messages take [link_delay] one way (paper: 25 ms,
    covering transmission + propagation + reception). *)

(** How a surviving router learns its neighbour died. *)
type detection =
  | Link_signal
      (** the link layer reports the loss after [detection_delay] (what
          the paper's experiments model) *)
  | Hold_timer of Bgp_proto.Session.config
      (** no link signal: the BGP session's hold timer must expire.  The
          delay is sampled from the session timing model — jittered hold
          time minus the time since the last keepalive — instead of
          simulating every keepalive message (see {!Bgp_proto.Session}). *)

type config = {
  bgp : Bgp_proto.Config.t;
  link_delay : float;  (** seconds; paper uses 0.025 *)
  detection_delay : float;
      (** [Link_signal] latency; defaults to [link_delay] *)
  detection : detection;
  relationships : Relationships.t option;
      (** Gao-Rexford policies on eBGP sessions; [None] (default) is the
          paper's policy-free operation *)
  trace : Trace.t option;
      (** record message/failure events when set.  A trace belongs to one
          run: parallel trials each need their own instance (and their
          own spill file — {!Runner.traced} builds seed-suffixed ones) *)
  telemetry : Telemetry.config option;
      (** enable the telemetry layer (probes + counter registry); [None]
          (default) is zero-cost — see {!Telemetry} *)
}

val config_default : Bgp_proto.Config.t -> config
(** [Link_signal] detection, 25 ms links, no policies, no telemetry. *)

type t

val build :
  ?shards:int ->
  ?owner:int array ->
  ?lookahead:float ->
  rng:Bgp_engine.Rng.t ->
  config:config ->
  ?telemetry:Telemetry.t ->
  Bgp_topology.Topology.t ->
  t
(** A network executed by the conservative windowed engine
    ({!Bgp_engine.Shard_exec}) across [shards] OCaml 5 domains (default
    [1]: one shard, run inline, no domain spawned).  [owner.(r)] is router
    [r]'s shard (from {!Bgp_topology.Partition}; default: every router on
    shard 0).  Router state, path tables, counters and fault tables are
    shard-local, and {e every} send goes through the executor's mailboxes
    — at one shard too — so deliveries are ordered by the layout-free
    [(arrival time, src router, send seq)] key and results are
    bit-identical for any shard count.  [lookahead] must be a positive
    lower bound on every message's delivery delay (default
    [max 1e-6 link_delay]; under a fault schedule
    {!Fault_injector.lookahead}).  The RNG is split into a detection
    stream, then one stream per router in index order, so router streams
    do not depend on the layout.  [telemetry] is the per-run instance the
    network registers its getter-backed counters into ([net.*],
    [router.*], [queue.*], [mrai.*], [damping.*], [sched.*], [path.*]);
    created and threaded by {!Runner.run} when [config.telemetry] is set.
    See DESIGN.md §11.
    @raise Invalid_argument on a bad [shards]/[owner]/[lookahead]. *)

val topology : t -> Bgp_topology.Topology.t
val bgp_config : t -> Bgp_proto.Config.t

val paths : t -> Bgp_proto.Path.table
(** Shard 0's AS-path interning table — at one shard, the table every
    router (and the analytic warm-up) interns into. *)

val relationships : t -> Relationships.t option
val router : t -> int -> Bgp_proto.Router.t
val num_routers : t -> int
val sessions : t -> (int * int * Bgp_proto.Types.session_kind) list
(** Each session once, [(u, v, kind)] with [u < v]. *)

val sessions_of_topology :
  Bgp_topology.Topology.t -> (int * int * Bgp_proto.Types.session_kind) list
(** The sessions {!build} would create over this topology — lets
    {!Fault_injector.generate} derive a link-aware schedule from the
    seed before (and without) building the network. *)

val start_all : t -> unit
(** Originate every router's prefix at the current simulated time. *)

(** {2 Execution} *)

val run : ?at_barrier:(now:float -> unit) -> t -> cap:float -> unit
(** Run windows until no shard holds an event at time [<= cap]
    ({!Bgp_engine.Shard_exec.run_phase}); later events stay queued.
    [at_barrier] runs single-threaded once per window with the window's
    start time — the only point where cross-shard router state is
    stable, hence the hook for telemetry probes and churn samples.  When
    the config carries a trace, each barrier also moves the shards'
    recorded events into it, and so does the end of the call. *)

val now : t -> float
(** Time of the last executed event (max shard clock). *)

val pending : t -> int
(** Live events across shards; [0] once the network has drained. *)

val events : t -> int
(** Executed events, normalized so replicated fault events count once. *)

val shard_count : t -> int
val owner_of : t -> int -> int
val shard_sched : t -> int -> Bgp_engine.Scheduler.t

val paths_for : t -> int -> Bgp_proto.Path.table
(** Router [r]'s interning table: its shard's. *)

(** {2 Failures}

    Called by the orchestrator between {!run} calls, with every domain
    parked: [at] is the injection time and must be [>=] {!now}. *)

val inject_failure : t -> at:float -> Bgp_topology.Failure.t -> unit
(** Kill the failed routers at [at] and schedule session-down
    notifications to their surviving session peers, each on the peer's
    own shard, after the detection delay (hold-timer samples are drawn in
    one global order, independent of the layout). *)

val inject_link_failures : t -> at:float -> (int * int) list -> unit
(** Fail individual links (sessions): both endpoints observe the session
    drop [detection_delay] after [at]; the routers stay up.  The paper
    argues link-only failures are unlikely at large scale (Section 3.2)
    but they are the classic single-event experiments (Labovitz Tdown). *)

val is_failed : t -> int -> bool

(** {2 Fault-injection hooks}

    The substrate {!Fault_injector} drives: per-shard replicas of the
    fault tables (severed links, gray-link loss probabilities, per-link
    delay factors, per-router clock skew) consulted on every message's
    send and delivery.  Disabled — and cost- and draw-free, so existing
    seeds replay bit-identically — until {!enable_faults} is called.
    {!Fault_injector.install} replicates every fault event into every
    shard's scheduler with preassigned trace ids, so each shard's tables
    evolve identically without cross-shard reads.  Each hook touches only
    shard [shard]'s tables; session notifications and trace records fire
    only on the shard owning the affected router.  All link-keyed hooks
    are symmetric in [u]/[v]. *)

val enable_faults : t -> rng:Bgp_engine.Rng.t -> unit
(** Attach the fault layer.  One draw from [rng] — the injector-owned
    stream, deliberately NOT split from the network's build-time RNG, so
    enabling faults never shifts the routers' streams — salts the
    hash-based gray-link loss decisions.
    @raise Invalid_argument if already enabled. *)

val faults_enabled : t -> bool

val first_root_id : int
(** Preassigned trace ids of fault and churn roots start here ([1 lsl
    50]), above every per-router id. *)

val note_replica : t -> shard:int -> unit
(** Count one replicated fault event executing on [shard], for the
    {!events} normalization. *)

val record_fault :
  t -> shard:int -> id:int -> label:string -> router:int -> cause:int -> unit
(** Record a [Fault] trace event with the preassigned [id] — only on the
    shard owning [router] (no-op elsewhere or when untraced).  It is the
    causal root that session transitions and heals point back to. *)

val sever_link : t -> shard:int -> cause:int -> u:int -> v:int -> unit
(** Cut the link now: in-flight and future messages between [u] and [v]
    drop immediately; both endpoints observe the session drop after
    [detection_delay] (recorded as causal [Session_down] events, caused
    by [cause]).  Sever counts nest: a link severed by two overlapping
    faults needs two {!restore_link}s to come back. *)

val restore_link : t -> shard:int -> cause:int -> u:int -> v:int -> unit
(** Undo one {!sever_link}.  When the last sever lifts, both endpoints
    re-establish after [detection_delay] ([Session_up] trace events,
    {!Bgp_proto.Router.peer_up} full-table re-sync).  No-op if the link
    is not severed. *)

val set_link_factor : t -> shard:int -> u:int -> v:int -> float -> unit
(** Multiply the link's one-way delay by [factor] (jitter); [1.0]
    restores the default.  Applies to messages {e sent} from now on.
    @raise Invalid_argument if [factor <= 0]. *)

val set_link_loss : t -> shard:int -> u:int -> v:int -> float -> unit
(** Gray link: drop each message on the link with probability [p]; the
    draw is a hash of (salt, src, dst, send seq), so it rides with the
    message; [0.0] restores the default.
    @raise Invalid_argument unless [0 <= p < 1]. *)

val set_clock_skew : t -> shard:int -> router:int -> float -> unit
(** Receive-path clock offset: every message delivered {e to} [router]
    arrives [skew] seconds later (effective delay clamped positive). *)

val cross_sessions : t -> side:bool array -> (int * int) list
(** The sessions with exactly one endpoint in [side] — the cut-set a
    partition along [side] must sever.  Each pair once, [(u, v)] with
    [u < v]. *)

val lost_messages : t -> int
(** Messages dropped in flight by the fault layer (severed link, gray
    loss, or dead destination while faults were enabled); [0] when
    faults were never enabled. *)

(** {2 Aggregate counters} *)

val messages_sent : t -> int
(** Update messages handed to the network (adverts + withdrawals). *)

val adverts_sent : t -> int
val withdrawals_sent : t -> int

val session_downs : t -> int
(** Session-down notifications delivered to surviving routers. *)

val last_activity : t -> float
(** Simulated time of the last route-affecting action anywhere. *)

val sum_metrics : t -> Bgp_proto.Router.metrics
(** Component-wise sum over surviving routers (max for [max_queue] and
    [mrai_level]). *)

val overloaded_routers : t -> threshold:float -> int list
(** Routers whose unfinished work ever exceeded [threshold] seconds —
    the paper's Section 4.1 explanation of the V-curve is that these are
    predominantly the high-degree nodes. *)

(** {2 Telemetry probes} *)

val memory_snapshot : t -> Telemetry.memory
(** Estimated memory footprint, rolled up per shard: RIB bytes and entry
    counts per owner shard, per-table hashcons stats, scheduler-slab
    high-water/capacity, and the run trace's occupancy.  Fixed word
    models over entry counts only — deterministic for a given run,
    identical across [--jobs].  The runner attaches it via
    [Telemetry.set_memory] at finalize. *)

val probe_tick : t -> Telemetry.t -> time:float -> unit
(** Record one probe tick: a {!Telemetry.row} per surviving router,
    stamped [time] (the runner passes the window start from {!run}'s
    barrier hook).  Read-only — draws no randomness and schedules
    nothing. *)
