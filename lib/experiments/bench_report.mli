(** Machine-readable benchmark reports ([--bench-json]).

    Collects one entry per figure/ablation regenerated by the bench
    harness — wall and CPU time, achieved parallel speedup, per-domain
    pool runtime metrics, trial counts and shape-verdict tallies — and
    serializes the batch as a single JSON document (schema
    ["bgp-bench/1"]), so CI can archive and diff benchmark runs without
    scraping terminal output.  The document is a
    {!Bgp_engine.Json_lite} value, so {!Bgp_engine.Json_lite.parse}
    reads it back. *)

type entry = {
  id : string;
  title : string;
  kind : string;  (** ["figure"] or ["ablation"] *)
  wall : float;  (** elapsed seconds regenerating this figure *)
  cpu : float;  (** process CPU seconds across all domains *)
  speedup : float;  (** cpu / pool wall; ~jobs when perfectly parallel *)
  sim_runs : int;  (** simulation runs executed (0 = fully cached) *)
  batches : int;  (** pool [map] calls *)
  queue_wait : float;  (** summed worker wait on the work deque, seconds *)
  per_domain : Bgp_engine.Pool.domain_stat list;
      (** per-domain breakdown of the figure's last pool batch *)
  verdicts_pass : int;
  verdicts_total : int;
}

type micro = {
  name : string;  (** e.g. ["rib.select"] *)
  iters : int;  (** operations measured *)
  micro_wall : float;  (** elapsed seconds for all [iters] *)
  ns_per_op : float;
  ops_per_s : float;
}
(** One micro-benchmark figure ([bench/micro.exe]); serialized under the
    report's ["micro"] array. *)

type attribution = {
  attr_scenario : string;  (** human-readable scenario label *)
  attr_delay : float;  (** measured convergence delay, seconds *)
  attr_queueing : float;
  attr_processing : float;
  attr_mrai_hold : float;
  attr_propagation : float;
  attr_hops : int;  (** critical-path length in events *)
  attr_complete : bool;  (** the causal chain reached the failure *)
  attr_dests : int;  (** destinations that re-converged *)
  attr_tail_p50 : float;  (** per-destination tail percentiles, seconds *)
  attr_tail_p95 : float;
  attr_tail_p99 : float;
  attr_straggler_dest : int;  (** slowest destination; [-1] when none *)
  attr_straggler_tail : float;  (** its tail, seconds *)
}
(** Critical-path delay decomposition of one traced reference run
    ({!Bgp_netsim.Attribution}), plus its per-destination tail summary;
    serialized under the report's optional ["attribution"] object.  The
    four components sum to [attr_delay]. *)

type profile = {
  prof_wall : float;  (** profiled wall time, seconds *)
  prof_queue_wait : float;  (** cumulative pool queue wait, seconds *)
  prof_spans : (string * float * int) list;
      (** flat [(label, seconds, count)] rows — [Profile.summarize]'s
          ["domain0/shard1/compute"] labels *)
  prof_counters : (string * int) list;
}
(** Where the harness's own wall time went ([Bgp_engine.Profile] run
    under [--prof]); serialized under the report's optional ["profile"]
    object.  Plain rows keep this module decoupled from the profiler's
    span types. *)

type t

val create : trials:int -> n:int -> jobs:int -> t
(** Report skeleton carrying the run-wide settings. *)

val set_attribution : t -> attribution -> unit
val attribution : t -> attribution option

val set_profile : t -> profile -> unit
val profile : t -> profile option

val micro : name:string -> iters:int -> wall:float -> micro
(** Derive the per-op rates from a timed loop. *)

val add_micro : t -> micro -> unit
val micros : t -> micro list

val entry :
  id:string ->
  title:string ->
  kind:string ->
  wall:float ->
  pool:Bgp_engine.Pool.stats ->
  per_domain:Bgp_engine.Pool.domain_stat list ->
  verdicts_pass:int ->
  verdicts_total:int ->
  entry
(** Derive an entry from a figure's pool-stats delta ([Pool.reset_stats]
    before, [Pool.stats] after). *)

val add : t -> entry -> unit
val entries : t -> entry list

val to_json : t -> string
(** One compact {!Bgp_engine.Json_lite} document. *)

val write : t -> string -> unit
(** {!to_json} plus a trailing newline. *)
