(** AS paths as plain immutable values.

    A path caches its length and a membership bitset, so the hot path
    reads its length from a field and answers most [contains] queries
    from the bitset instead of walking the hop list.  {!cons} allocates
    one node whose hop list is the tail's own list with one cell in
    front, so paths built on a common tail share its spine.

    There is no interning: equal hop sequences may be distinct values,
    and paths compare structurally ({!equal}, and equally [=] and
    [compare]).  Sharing comes from the callers that repeat a path: a
    router keeps the prepend it last made per destination
    ({!Router}), an {!Export.offer} prepends once for all of its peers,
    and a trace reader shares hop suffixes within one file.

    A {!table} is one run's path counters (one per shard): the nodes
    built and the prepends served from a router's cache.  It holds no
    path, so a run's path memory follows the routing state. *)

type t
(** An AS path.  Head is the AS of the last speaker that prepended; the
    origin AS is last.  The empty path (locally-originated routes) is
    {!empty}. *)

type table
(** Path counters: one per simulation run (per shard). *)

val create_table : unit -> table

val empty : t
(** The empty path; [length empty = 0]. *)

val absent : t
(** A sentinel that is not a path: distinct from every path and from
    {!empty} (compare with [==]; {!equal} is [false] against any real
    path).  Path-valued arrays use it to mark an empty slot.  Never
    advertise it. *)

val cons : table -> int -> t -> t
(** [cons tbl asn p] is the path [asn :: hops p]: one new node sharing
    [p]'s spine, counted in [tbl].  O(1).
    @raise Invalid_argument if [asn] is negative or above 2{^22} - 1. *)

val cons_cached : table -> last:t -> int -> t -> t
(** [cons_cached tbl ~last asn p] is [last] when [last] is [asn] in front
    of [p]'s own spine (an earlier [cons _ asn p], or one onto a path
    sharing [p]'s spine), counted in [tbl] as a prepend served from a
    cache; otherwise it is [cons tbl asn p].  [last] may be {!absent}. *)

val of_list : table -> int list -> t
(** Build an explicit hop list (tests, single trace lines): one {!cons}
    per hop. *)

val hops : t -> int list
(** The hop sequence, head first.  O(1) — the list is the path's spine,
    not a copy. *)

val length : t -> int
(** Cached; O(1). *)

val is_empty : t -> bool

val contains : t -> int -> bool
(** Membership test: O(1) bitset rejection for most misses, then a scan
    of the (short) hop list to confirm. *)

val equal : t -> t -> bool
(** Structural: equal exactly when the hop sequences are.  O(1) for the
    same value, for different lengths or bitsets, and where two spines
    meet. *)

val pp : Format.formatter -> t -> unit

(** {2 Path counters (telemetry, micro-benchmarks)} *)

val unique_count : table -> int
(** Path nodes built by {!cons} so far (telemetry's [path.interned]). *)

val hit_count : table -> int
(** Prepends served from a router's cache ({!cons_cached}) so far
    (telemetry's [path.intern_hits]). *)

type table_stats = {
  nodes : int;  (** path nodes built (= {!unique_count}) *)
  hops_total : int;  (** sum of the built nodes' path lengths *)
  sharing : float;
      (** naive per-path hop storage over actual shared-spine storage;
          [>= 1.0], higher means more tail sharing *)
  approx_bytes : int;  (** fixed word model: 7 words per node built *)
}

val table_stats : table -> table_stats
(** Deterministic size accounting for the memory report: depends only on
    what was built, never on GC state.  O(1).  It counts every node the
    run built, live or not: an upper bound on the live path memory. *)
