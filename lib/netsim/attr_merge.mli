(** Streaming, O(trials) merge of per-trial attribution sidecars
    ({!Attribution.sidecar}).

    The in-memory reference merge ({!Attribution.merge}) retains every
    [(trial, dest)] tail sample and re-sorts them per query; this module
    instead folds each sidecar into a constant-size accumulator —
    running component sums (exact: the same float additions in the same
    order as the reference), a fixed-bucket log-scale tail histogram
    ({!Delay_hist}, quantiles within its documented <2% relative error),
    and a bounded worst-straggler board — so merging a thousand-trial
    campaign costs O(trials) time and O(1) memory, and a live service
    ({!Bgp_experiments.Serve}) can answer percentile queries mid-run.

    Trials missing a sidecar fall back to re-parsing their finalized
    trace ({!plan} emits [Use_trace] items); unreadable or malformed
    files are never silently dropped — they are counted in [skipped]
    with the first error (file:line) surfaced in every report. *)

type t

val create : unit -> t
(** An empty accumulator.  Its straggler board keeps the 64 slowest
    [(trial, dest)] samples. *)

val add_sidecar : ?reparsed:bool -> t -> Attribution.sidecar -> unit
(** Fold one trial in.  Order matters only for float-addition order; the
    callers fold in stem-sorted file order so repeated merges of the
    same directory are bit-identical.  [reparsed] (default false) tallies
    the trial under the re-parse fallback in the [sources] accounting
    instead of the sidecar fast path. *)

val skip : t -> string -> unit
(** Record an unreadable/malformed input; the first message is kept. *)

val trials : t -> int
val skipped : t -> int
val first_error : t -> string option

(** {2 Reports} *)

type straggler = {
  seed : int;
  dest : int;
  tail : float;
  parts : Attribution.components;
}

type report = {
  r_trials : int;
  r_from_sidecars : int;  (** trials folded straight from sidecars *)
  r_reparsed : int;  (** trials recovered by trace re-parse fallback *)
  r_skipped : int;
  r_first_error : string option;
  r_mean_delay : float;
  r_totals : Attribution.components;
  r_aggregate : Attribution.components;
  r_dests : int;  (** pooled [(trial, dest)] samples *)
  r_p50 : float;
  r_p95 : float;
  r_p99 : float;  (** histogram tail percentiles (see {!Delay_hist}) *)
  r_pass : int;  (** trials with an empty violation list *)
  r_fail : int;
  r_violations : (string * int) list;
      (** chaos invariant-battery tally, sorted by name *)
  r_stragglers : straggler list;  (** slowest first, at most 64 *)
}

val report : t -> report

val to_json : ?top:int -> t -> string
(** Schema ["bgp-attr-merge/1"] — a superset of
    {!Attribution.merged_to_json}: same [trials], [mean_delay],
    [totals], [aggregate], [pooled_tails] and [stragglers] members, plus
    [sources] (sidecar/reparse/skip counts and the first error),
    [histogram], and the [battery] pass/fail tally.  [top] (default 10)
    caps the straggler array. *)

val battery_json : report -> Json_lite.t
(** The invariant-battery tally [{pass, fail, violations: {name: count}}],
    shared by {!to_json} and the serve status document. *)

val to_flamegraph : t -> string
(** Merged aggregate [router;component] collapsed stacks (integer
    microseconds), one line per (router, component) across all folded
    trials: {!Attribution.flamegraph_by_router} over the merged table. *)

val pp : ?top:int -> Format.formatter -> t -> unit

(** {2 Directory loading}

    The work plan for a campaign directory: one item per trial {e stem}
    (file name minus [.jsonl] / [.attr.json]), preferring the sidecar
    when both exist, stem-sorted so the fold order — and hence the
    merged floats — are reproducible. *)

type item =
  | Use_sidecar of string
  | Use_trace of string  (** no sidecar: re-parse the finalized trace *)

val plan : ?reparse:bool -> string -> item list
(** Scan a directory.  [reparse] forces [Use_trace] for every trial that
    has a trace file (benchmark baseline; sidecar-only trials still load
    from their sidecar).
    @raise Sys_error if the directory cannot be read. *)

val load_item : item -> (Attribution.sidecar, string) result
(** Pure per-item work — safe to fan across {!Bgp_engine.Pool} domains.
    [Use_trace] re-parses the trace and re-runs the full attribution; a
    trace without a meta line is an error (it was never finalized). *)

val load : ?jobs:int -> t -> item list -> unit
(** {!load_item} across the pool (results folded in input order, so the
    accumulator is independent of [jobs]), errors recorded via {!skip}. *)
