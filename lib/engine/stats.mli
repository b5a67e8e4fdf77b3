(** Streaming statistics (Welford) with optional sample retention for
    percentiles.  Used to aggregate per-seed experiment results. *)

type t

val create : ?keep_samples:bool -> unit -> t
(** [keep_samples] defaults to [true]; set [false] for high-volume
    accumulators where only moments are needed. *)

val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 when fewer than two samples. *)

val stddev : t -> float
val min : t -> float
val max : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,1\]], linear interpolation.
    @raise Invalid_argument if samples were not kept or [t] is empty. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

val summarize : t -> summary
val pp_summary : Format.formatter -> summary -> unit
