(** The export half of the decision process as a pure function: what does
    a router whose Loc-RIB selection is [best] tell a given peer?

    Shared by {!Router} (live operation) and by the analytic steady-state
    construction in the network layer, so the two can never disagree. *)

open Types

type offer
(** One router's Loc-RIB selection for one destination, as offered to its
    peers.  The eBGP form of the path (own AS prepended, one
    [Path.cons]) is computed the first time an eBGP peer is offered the
    route and reused for every later peer, so a route change pays for at
    most one prepend however many peers it is exported to. *)

val offer :
  ?cached:path -> paths:Path.table -> own_as:as_id -> Rib.best option -> offer
(** [paths] counts the prepend ({!Path}); [own_as] is the exporting
    router's AS.  [cached] (default [Path.absent]) is a prepend an earlier
    offer made: it is served instead of a new one while it still extends
    the selection's path ({!Path.cons_cached}). *)

val prepended : offer -> path
(** The eBGP path this offer has made or served so far, or [Path.absent]
    if no eBGP peer has been offered the route yet. *)

val path_for :
  config:Config.t ->
  offer ->
  peer_kind:session_kind ->
  peer_as:as_id ->
  ?peer_rel:relationship ->
  unit ->
  path
(** What the peer should currently hold, or [Path.absent] for nothing:
    no selection, an iBGP-learned selection facing an iBGP peer, a
    sender-side loop-check hit, or — when relationships are configured —
    a valley-free (Gao-Rexford) export restriction: routes learned from
    peers or providers are only exported to customers.  [peer_rel] is
    our relationship to the peer being exported to.  A peer that held
    something before is then sent a withdrawal. *)
