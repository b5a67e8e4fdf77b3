(** Convergence-delay attribution over a causal trace ({!Trace}).

    Walking cause pointers backwards from a {e terminal event} recovers a
    {e critical path}: the single causal chain whose total latency is
    exactly the delay from the failure to that terminal.  The walk is
    parameterized by its terminal, and one analysis runs it many times:

    - once from the network-wide last post-failure event, yielding the
      convergence delay and its decomposition ([totals], [critical_path]);
    - once per destination, from that destination's own last event,
      yielding each prefix's convergence {e tail} and its decomposition
      ([per_dest]) plus cross-destination percentiles ([tails]) and
      stragglers.

    Each hop's latency (its timestamp minus its cause's) is decomposed
    into the four components the paper's Figs 4–5 argue over — queueing,
    processing, MRAI hold, and propagation — and the per-hop parts
    telescope, so the component totals sum to the walked delay {e exactly}
    (no float tolerance needed beyond the additions themselves):

    - [Processed]: queueing = started − enqueued, processing =
      completion − started, remainder of the hop gap → propagation;
    - [Mrai_flush]: MRAI hold = fire − ready, remainder → propagation;
    - [Update_delivered] / [Session_down] / [Update_sent]: the whole hop
      gap → propagation (link delay, failure-detection delay, residuals);
    - a root hop (cause [no_cause], or a cause that predates [t_fail] —
      e.g. a damping suppression begun during warmup) carries
      [time − t_fail], with its own timestamps clipped at [t_fail] so no
      pre-failure waiting leaks into the post-failure decomposition.

    The analysis is pure post-processing: it never touches the simulation
    and can run over spilled-and-reloaded traces ({!Trace.events},
    {!Trace.read_file}). *)

type components = {
  queueing : float;  (** waiting in router input queues *)
  processing : float;  (** being served by router CPUs *)
  mrai_hold : float;  (** sitting pending behind a running MRAI timer *)
  propagation : float;  (** link delay, failure detection, residuals *)
}

val zero : components
val add : components -> components -> components

val total : components -> float
(** Sum of the four components. *)

val component_names : string list
(** [["queueing"; "processing"; "mrai_hold"; "propagation"]], the order
    used everywhere (JSON, flamegraphs, reports). *)

val component : components -> string -> float
(** Project one component by name.
    @raise Invalid_argument on an unknown name. *)

val dominant : components -> string
(** The largest component's name (first in {!component_names} on ties). *)

type hop = {
  event : Trace.event;
  parts : components;  (** this hop's share of the chain latency *)
}

type router_stat = {
  router : int;
  residency : float;  (** critical-path time spent at this router *)
  parts : components;
  hops : int;
}

type dest_attr = {
  dest : int;
  tail : float;
      (** this destination's convergence tail: its terminal event time −
          [t_fail] *)
  dest_complete : bool;  (** this destination's chain reached a root *)
  dest_parts : components;
      (** summed over [dest_path]; [total dest_parts = tail] when
          [dest_complete] *)
  dest_path : hop list;  (** root first, terminal last *)
}

type tail_summary = {
  n_dests : int;
  p50 : float;
  p95 : float;
  p99 : float;  (** nearest-rank percentiles of per-destination tails *)
}

type t = {
  t_fail : float;
  convergence_delay : float;
      (** terminal event time − [t_fail]; [0.] when nothing happened *)
  complete : bool;
      (** the cause chain reached a root; [false] means the ring buffer
          dropped part of the chain and the decomposition is a lower
          bound *)
  totals : components;
      (** summed over the critical path; [total totals =
          convergence_delay] when [complete] *)
  critical_path : hop list;  (** root first, terminal last *)
  per_router : router_stat list;
      (** critical-path residency per router, busiest first *)
  aggregate : components;
      (** the same per-event decomposition summed over {e all}
          post-failure events with a resolvable cause — where the whole
          network's time went, not just the slowest chain *)
  aggregate_by_router : (int * components) list;
      (** [aggregate] broken down by the router that incurred each
          event's latency, sorted by router — the data behind the
          aggregate flamegraph *)
  events : int;  (** post-failure events analyzed *)
  per_dest : dest_attr list;
      (** one attribution per destination, slowest tail first (ties by
          destination id) *)
  tails : tail_summary;  (** percentiles over [per_dest] tails *)
}

val analyze : t_fail:float -> Trace.event list -> t
(** Events at [time < t_fail] (warmup) are analyzed only as potential
    causes of post-failure events; they contribute nothing themselves. *)

val of_trace : t_fail:float -> Trace.t -> t
(** [analyze] over {!Trace.events} (includes spilled events). *)

val stragglers : t -> dest_attr list
(** Destinations whose tail exceeds the p95 tail, slowest first — the
    prefixes the paper's tail-latency figures are about. *)

(** {2 Collapsed-stack (flamegraph) export} *)

type flame_mode =
  | Flame_aggregate
      (** one stack per (router, component) over the network-wide
          aggregate: line totals equal the aggregate decomposition *)
  | Flame_per_dest
      (** one stack per (destination, router, component) over each
          destination's critical path *)

val to_flamegraph : ?mode:flame_mode -> t -> string
(** Collapsed-stack lines ([frame;frame value\n]) for inferno /
    flamegraph.pl / speedscope.  Values are integer microseconds of
    simulated time; zero-valued lines are omitted.  Default mode
    {!Flame_aggregate}. *)

val flamegraph_by_router : (int * components) list -> string
(** The {!Flame_aggregate} rendering of a by-router table, in list order:
    one [router_N;component] line per part that rounds to at least 1 us.
    {!Attr_merge} renders its merged table through this too. *)

(** {2 JSON}

    Documents are {!Json_lite} values; the pieces below are shared with
    {!Attr_merge}, which writes the same merge schema. *)

val components_json : components -> Json_lite.t
(** The four components plus their [total]. *)

val tails_json : tail_summary -> Json_lite.t
(** [{dests, tail_p50, tail_p95, tail_p99}]. *)

val straggler_json : seed:int -> dest:int -> tail:float -> components -> Json_lite.t
(** One straggler row of a merge report, with its dominant component. *)

val to_json : ?top:int -> t -> string
(** Schema ["bgp-attr/2"].  [top] (default 10) caps [per_router]; the
    critical path and the per-destination array are always emitted in
    full. *)

val pp : ?top:int -> ?max_hops:int -> Format.formatter -> t -> unit
(** Human-readable report: component totals with percentages, the
    critical path (at most [max_hops], default 40, keeping the ends), and
    the [top] (default 5) routers by residency. *)

val pp_components : Format.formatter -> components -> unit
(** One line: each component in seconds with its share of the total. *)

val pp_per_dest : ?top:int -> Format.formatter -> t -> unit
(** Per-destination report: tail percentiles, stragglers beyond p95, and
    the [top] (default 5) slowest destinations with their decompositions. *)

(** {2 Per-trial sidecars}

    A sidecar is the compact, mergeable residue of one trial's
    attribution — schema ["bgp-attr-sidecar/1"]: the component sums
    (critical-path and network-wide, per router) plus one delay sample
    per destination, with every float printed exactly (["%.17g"]) so a
    merge over sidecars is bit-equal to a merge over re-analyzed traces.
    Every traced run persists one next to its finalized trace
    ({!Runner.finalize_traced}, so every [bgpsim --trace-file] run, and
    [bgpsim chaos --sidecar-dir]), which is what makes
    [bgpsim analyze --merge] O(trials) instead of O(events) and lets
    [bgpsim serve] watch a campaign without touching raw traces. *)

type sidecar_dest = {
  sd_dest : int;
  sd_tail : float;
  sd_complete : bool;
  sd_parts : components;
}

type sidecar = {
  sc_seed : int;
  sc_t_fail : float;
  sc_delay : float;  (** the trial's convergence delay *)
  sc_complete : bool;
  sc_events : int;  (** post-failure events the analysis covered *)
  sc_totals : components;  (** critical-path decomposition *)
  sc_aggregate : components;  (** network-wide decomposition *)
  sc_by_router : (int * components) list;
      (** [aggregate_by_router], the flamegraph data, sorted by router *)
  sc_dests : sidecar_dest list;  (** per-destination tails, slowest first *)
  sc_violations : string list;
      (** chaos invariant-battery failures ([] for a clean or non-chaos
          trial) — lets a live campaign serve its pass/fail tally *)
}

val sidecar_of : ?violations:string list -> seed:int -> t -> sidecar

val sidecar_path : string -> string
(** The sidecar path for a trace file: ["t.seed7.jsonl"] maps to
    ["t.seed7.attr.json"] (the extension is replaced). *)

val is_sidecar_path : string -> bool
(** True for paths ending in [".attr.json"]. *)

val sidecar_to_json : sidecar -> string
(** One ["bgp-attr-sidecar/1"] document, no trailing newline. *)

val sidecar_of_json : string -> (sidecar, string) result

val write_sidecar : string -> sidecar -> unit
(** Write atomically (temp file + rename), so a directory watcher
    ({!Bgp_experiments.Serve}) never observes a partial sidecar. *)

val read_sidecar : string -> (sidecar, string) result
(** [Error] — never an exception — for an unreadable or malformed file;
    the message names the file. *)

(** {2 Multi-trial merge}

    Traced trials of a sweep each produce one finalized trace file
    ({!Trace.finalize}); merging pools their per-destination tails into
    sweep-wide percentiles and straggler rankings without re-running
    anything.  (The streaming, O(trials) path over sidecars lives in
    {!Attr_merge}; this in-memory merge remains the reference the
    streamed one is tested against.) *)

type trial = { trial_seed : int; attr : t }

type merged = {
  n_trials : int;
  mean_delay : float;  (** mean convergence delay across trials *)
  merged_totals : components;  (** critical-path components summed *)
  merged_aggregate : components;  (** network-wide aggregates summed *)
  pooled_tails : tail_summary;
      (** percentiles over the pooled [(trial, dest)] tails *)
  worst : (int * dest_attr) list;
      (** all pooled [(seed, dest)] attributions, slowest tail first *)
}

val merge : trial list -> merged
(** @raise Invalid_argument on an empty list. *)

val merged_to_json : ?top:int -> merged -> string
(** Schema ["bgp-attr-merge/1"].  [top] (default 10) caps the straggler
    array. *)

