(** Routing information bases and the decision process for one router.

    The decision criterion is the paper's: shortest AS-path length only
    (Section 3.2), with deterministic tie-breaks — locally-originated
    beats learned, eBGP beats iBGP, then lowest peer id.  When Gao-Rexford
    relationships are supplied, a local-preference class (customer over
    peer over provider) ranks above path length, as in real BGP. *)

open Types

type entry = {
  peer : router_id;
  kind : session_kind;
  path : path;
  rel : relationship option;  (** our relationship to the advertising peer *)
}

type best =
  | Local  (** locally originated, path [] *)
  | Learned of entry

type t

val create : asn:as_id -> t
(** An empty RIB.  Storage is indexed by destination and grows on demand
    to the highest destination written; writes to a negative destination
    raise [Invalid_argument], reads of one find nothing. *)

val asn : t -> as_id

val originate : t -> dest -> unit
(** Install a locally-originated route (used for the router's own AS
    prefix). *)

val unoriginate : t -> dest -> unit
(** Remove the locally-originated route (a churn workload withdrawing one
    of its own prefixes); no-op if absent.  Learned Adj-RIB-In entries
    for [dest] are untouched. *)

val set_in :
  t -> dest -> peer:router_id -> kind:session_kind -> ?rel:relationship -> path -> unit
(** Replace the Adj-RIB-In entry from [peer] for [dest].  [rel] is the
    Gao-Rexford relationship used for local-preference ranking (omit for
    the paper's policy-free operation).
    @raise Invalid_argument if the path contains our own AS (the caller
    must apply receiver-side loop detection first). *)

val withdraw_in : t -> dest -> peer:router_id -> unit
(** Remove the entry from [peer]; no-op if absent. *)

val drop_peer : t -> peer:router_id -> dest list
(** Remove all entries learned from [peer] (session down); returns the
    destinations that lost an entry, in ascending order. *)

val entries_in : t -> dest -> entry list
(** Current Adj-RIB-In contents for a destination (sorted by rank). *)

val decide : t -> dest -> bool
(** Re-run the decision process for [dest] and update the Loc-RIB.
    Returns [true] iff the result changed in an export-relevant way (the
    best path, its existence, or its iBGP re-exportability). *)

val best : t -> dest -> best option
(** Current Loc-RIB selection, if any. *)

val best_path : t -> dest -> path option
(** Path of the current selection; [Some Path.empty] for a local
    route. *)

val ibgp_exportable : best -> bool
(** Standard full-mesh iBGP rule: only local and eBGP-learned routes are
    re-advertised to iBGP peers. *)

val iter_dests : t -> (dest -> unit) -> unit
(** Visit, once each and in ascending order, every destination that has
    ever held an Adj-RIB-In entry, has a Loc-RIB selection, or is locally
    originated.  A walk over the destination arrays: no intermediate list
    or table. *)

val loc_size : t -> int
(** Destinations with a current Loc-RIB selection — the "RIB size" the
    telemetry probes sample.  O(1). *)

val in_entries : t -> int
(** Total Adj-RIB-In entries across all destinations and peers.  O(1). *)

val approx_bytes : t -> int
(** Estimated resident size of this RIB in bytes, from a fixed
    words-per-entry model over the entry counts and the number of
    destination slots (deterministic: no heap walk, no dependence on GC
    state).  AS paths, which RIBs share, are excluded — they are
    accounted once, from the run's path counters ([Path.table_stats]). *)

val rank : best -> int * int * int * int
(** Reference ranking key (preference class, path length, eBGP-over-iBGP,
    peer id; lower is better); kept as the specification that
    [packed_rank] is property-tested against. *)

val packed_rank : best -> int
(** The same ordering packed into a single int (what the hot path
    compares); [packed_rank Local = 0].  Order-isomorphic to {!rank}. *)
