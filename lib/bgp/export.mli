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

val offer : paths:Path.table -> own_as:as_id -> Rib.best option -> offer
(** [paths] is the run's interning table (the prepended hop is interned
    there); [own_as] is the exporting router's AS. *)

val path_for :
  config:Config.t ->
  offer ->
  peer_kind:session_kind ->
  peer_as:as_id ->
  ?peer_rel:relationship ->
  unit ->
  path
(** What the peer should currently hold, or [Path.absent] for nothing —
    the allocation-free form of {!target}, with the same rules. *)

val target :
  paths:Path.table ->
  config:Config.t ->
  own_as:as_id ->
  peer_kind:session_kind ->
  peer_as:as_id ->
  ?peer_rel:relationship ->
  best:Rib.best option ->
  unit ->
  path option
(** [paths] is the run's interning table (any prepended hop is interned
    there).  [None] means "advertise nothing" (i.e. withdraw if something was
    advertised before): no selection, an iBGP-learned selection facing an
    iBGP peer, a sender-side loop-check hit, or — when relationships are
    configured — a valley-free (Gao-Rexford) export restriction: routes
    learned from peers or providers are only exported to customers.
    [peer_rel] is our relationship to the peer being exported to. *)
