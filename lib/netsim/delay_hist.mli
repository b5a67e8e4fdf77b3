(** Fixed-bucket log-scale histogram of per-destination convergence
    tails, the streaming replacement for retaining every tail sample
    during a multi-trial merge ({!Attr_merge}).

    Layout (fixed, shared by every instance so histograms merge by
    bucket-wise addition):
    - bucket 0 collects underflow: tails [<= 1e-6] s (including the
      zero tails of destinations whose terminal coincides with the
      failure instant);
    - buckets [1 .. n_buckets - 2] are geometric: bucket [i] covers
      [(lo * r^(i-1), lo * r^i]] with [lo = 1e-6] s, [r = 10^(1/64)]
      (64 buckets per decade) over 10 decades (1 us to 10 000 s);
    - the last bucket collects overflow ([> 1e4] s; no simulated
      scenario reaches it — the runner caps phases at 36 000 s but a
      tail that long means an unconverged run).

    Quantile error bound: {!percentile} answers the nearest-rank
    quantile with the {e geometric midpoint} of the bucket holding the
    exact nearest-rank sample, so the reported value is within one
    bucket of the exact answer — a relative error of at most
    [sqrt r - 1 < 1.82%] (and exact for underflow, which reports 0). *)

type t

val n_buckets : int

val create : unit -> t

val bucket_of : float -> int
(** The bucket index a tail value falls into (total order preserving). *)

val add : t -> float -> unit

val count : t -> int
(** Samples added so far. *)

val counts : t -> int array
(** A copy of the raw bucket counts (length {!n_buckets}). *)

val merge_into : into:t -> t -> unit
(** Bucket-wise addition of [t] into [into]. *)

val midpoint : int -> float
(** The geometric midpoint of a log bucket — the representative value
    {!percentile} reports; it falls back into the same bucket under
    {!bucket_of}. *)

val percentile : t -> float -> float
(** [percentile t q] for [q] in [(0, 1]]: the geometric midpoint of the
    bucket containing the nearest-rank sample ([ceil (q * count)]-th
    smallest); [0.0] on an empty histogram or an underflow bucket hit. *)

val to_json : t -> Json_lite.t
(** A sparse rendering [{"n":N,"buckets":[[i,c],...]}] (only non-empty
    buckets), embedded in merge and churn reports. *)

val of_json : Json_lite.t -> t
(** Rebuild from {!to_json} output.
    @raise Json_lite.Bad on shape mismatch. *)
