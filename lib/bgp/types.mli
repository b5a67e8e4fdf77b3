(** Core BGP vocabulary shared by the protocol modules.

    Destinations are AS-level prefixes: every AS originates exactly one
    prefix, identified by its AS number (the granularity at which the
    paper counts update messages). *)

type router_id = int
type as_id = int

type dest = as_id
(** The prefix originated by that AS. *)

type path = Path.t
(** AS path: head is the AS of the last speaker that prepended (the
    advertising neighbour for eBGP-learned routes), the origin AS is last.
    A locally-originated route has the empty path.  Paths are plain
    values that cache their length and a membership bitset ({!Path}), so
    length, equality and membership are O(1)-ish on the hot path. *)

val path_length : path -> int
(** O(1) (cached in the path). *)

val path_contains : path -> as_id -> bool
(** Bitset rejection then a short scan; see {!Path.contains}. *)

val path_equal : path -> path -> bool
(** Structural; see {!Path.equal}. *)

val pp_path : Format.formatter -> path -> unit

type update =
  | Advertise of { dest : dest; path : path }
  | Withdraw of dest

val update_dest : update -> dest
val is_withdrawal : update -> bool


val pp_update : Format.formatter -> update -> unit

type session_kind = Ebgp | Ibgp

val pp_session_kind : Format.formatter -> session_kind -> unit

(** Commercial relationship of a neighbour (Gao-Rexford model).  The paper
    runs policy-free ("no policy based restrictions on route
    advertisements", Section 3.2); the policy machinery is an optional
    overlay of this library. *)
type relationship =
  | Customer  (** the neighbour pays us *)
  | Peer_link  (** settlement-free peer *)
  | Provider  (** we pay the neighbour *)

val pp_relationship : Format.formatter -> relationship -> unit

val preference_of_relationship : relationship option -> int
(** Local-preference class: routes via customers (0) over peers (1) over
    providers (2); [None] (no policy) maps to 0 so policy-free ranking is
    unchanged. *)
