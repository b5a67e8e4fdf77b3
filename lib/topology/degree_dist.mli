(** Degree-distribution specifications and realization of exact degree
    sequences as connected random simple graphs.

    This replaces the paper's "modified BRITE" (Section 3.1): the skewed
    two-class distributions (70-30, 50-50, 85-15) plus a capped power law
    standing in for the real AS connectivity data of [18]. *)

module Rng := Bgp_engine.Rng

type spec =
  | Two_class of {
      low_frac : float;  (** fraction of nodes in the low-degree class *)
      low_degrees : int array;  (** each low node draws uniformly from these *)
      high_degrees : int array;
    }
  | Uniform_range of { lo : int; hi : int }
  | Power_law of { gamma : float; min_degree : int; max_degree : int }
      (** P(d) proportional to d^-gamma on [min_degree, max_degree]. *)

val skewed_70_30 : spec
(** 70% with degree 1-3, 30% with degree 8; average 3.8 (Section 4.1). *)

val skewed_50_50 : spec
(** 50% with degree 1-3, 50% with degree 5 or 6; average ~3.8 (Fig 4). *)

val skewed_85_15 : spec
(** 85% with degree 1-3, 15% with degree 14; average 3.8 (Fig 4). *)

val skewed_50_50_dense : spec
(** 50% with degree 1-3, 50% with degree 13 or 14; average ~7.6 (Fig 5). *)

val internet_like : spec
(** Power law capped at degree 40 tuned so that ~70% of ASes have degree
    < 4 and the average is ~3.4 — the three facts the paper states about
    the Zhang et al. dataset (Sections 3.1, 4.1).  Substitution documented
    in DESIGN.md. *)

val mean_degree : spec -> float
(** Expected average degree of sequences drawn from [spec]. *)

val sample_sequence : spec -> Rng.t -> n:int -> int array
(** Draw a degree sequence; the sum is forced even (a random node may be
    bumped by one), each degree is clamped to [1, n-1], and the sequence
    is repaired to satisfy Erdos-Gallai (shaving the largest degrees) and
    to sum to at least [2 * (n - 1)] (raising leaves to degree 2) so that
    {!realize} always succeeds — repairs only trigger for small [n]. *)

val is_graphical : int array -> bool
(** Erdos-Gallai test: can the sequence be realized as a simple graph?
    O(n log n) — prefix sums over the sorted sequence plus a binary
    search per inequality. *)

val realize : Rng.t -> int array -> Graph.t
(** Build a connected random simple graph with exactly the given degree
    sequence: Havel-Hakimi construction, degree-preserving double-edge-swap
    randomization, then component-merging swaps.
    @raise Invalid_argument if the sequence is not graphical or the sum of
    degrees is below [2 * (n - 1)] (a connected graph needs that many stub
    ends). *)

val generate : spec -> Rng.t -> n:int -> Graph.t
(** [sample_sequence] composed with [realize]. *)
