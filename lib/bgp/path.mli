(** Hash-consed AS paths.

    Every distinct hop sequence is represented by exactly one node per
    {!table}, so the hot path compares paths by pointer, reads their
    length from a cached field, and answers most [contains] queries from a
    per-node membership bitset — replacing the [List.length]/[List.mem]
    walks the decision process and loop checks used to pay per message.

    Lifetime rules: a table lives for one simulation run (it is created by
    the network builder and shared by every router of that run), so
    interned nodes are reclaimed wholesale when the run's network is
    dropped, and no cross-domain sharing ever occurs — parallel trials
    each build their own table.  {!equal} is nevertheless safe across
    tables: it falls back to a structural hop comparison when the pointer
    test fails. *)

type t
(** An interned AS path.  Head is the AS of the last speaker that
    prepended; the origin AS is last.  The empty path (locally-originated
    routes) is the shared {!empty} node, which belongs to every table. *)

type table
(** An interning context: one per simulation run. *)

val create_table : unit -> table

val empty : t
(** The empty path; [length empty = 0]. *)

val absent : t
(** A sentinel that is not a path: distinct from every interned path and
    from {!empty} (compare with [==]; {!equal} is [false] against any real
    path).  Path-valued arrays use it to mark an empty slot.  Never
    advertise it. *)

val cons : table -> int -> t -> t
(** [cons tbl asn p] is the path [asn :: hops p], interned in [tbl].
    O(1) amortised (one memo-table probe).  [p] must itself be interned
    in [tbl] (or be {!empty}).
    @raise Invalid_argument if [asn] is negative or [p] was interned in a
    different table. *)

val of_list : table -> int list -> t
(** Intern an explicit hop list (tests, warm-up seeds). *)

val hops : t -> int list
(** The hop sequence, head first.  O(1) — the list is the interned
    spine, not a copy. *)

val length : t -> int
(** Cached; O(1). *)

val is_empty : t -> bool

val contains : t -> int -> bool
(** Membership test: O(1) bitset rejection for most misses, then a scan
    of the (short) hop list to confirm. *)

val equal : t -> t -> bool
(** Pointer comparison for paths from the same table (the common case);
    structural fallback otherwise. *)

val id : t -> int
(** Unique id within the owning table (0 for {!empty}); exposed for
    debugging and benchmarks. *)

val pp : Format.formatter -> t -> unit

(** {2 Interning statistics (telemetry, micro-benchmarks)} *)

val unique_count : table -> int
(** Distinct non-empty paths interned so far. *)

val hit_count : table -> int
(** [cons] calls answered from the memo table. *)

type table_stats = {
  nodes : int;  (** distinct interned path nodes (= {!unique_count}) *)
  hops_total : int;  (** sum of path lengths over all interned nodes *)
  sharing : float;
      (** naive per-path hop storage over actual shared-spine storage;
          [>= 1.0], higher means more tail sharing *)
  approx_bytes : int;  (** fixed word model: 11 words per node *)
}

val table_stats : table -> table_stats
(** Deterministic size accounting for the memory report: depends only on
    what was interned, never on hashing or GC state.  O(nodes). *)
