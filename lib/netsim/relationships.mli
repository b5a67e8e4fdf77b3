(** AS commercial relationships (Gao-Rexford) for a topology.

    The paper runs policy-free; this overlay lets the library also model
    policy-rich operation: {!infer} derives customer/provider/peer
    relations from relative AS connectivity (better-connected ASes are
    providers of much-less-connected neighbours, similar sizes peer), the
    standard degree heuristic. *)

type t

val infer : ?provider_ratio:float -> Bgp_topology.Topology.t -> t
(** AS [a] is a provider of adjacent AS [b] when [a]'s inter-AS degree is
    at least [provider_ratio] (default 2.0) times [b]'s; otherwise the two
    peer. *)

val relation :
  t -> from:int -> toward:int -> Bgp_proto.Types.relationship option
(** What router [toward]'s AS is to router [from]'s AS ([None] for
    same-AS/iBGP pairs). *)

val valley_free : t -> self:int -> int list -> bool
(** Is the AS hop list (as selected by router [self]; obtain it from a
    path with {!Bgp_proto.Path.hops}) valley-free: zero or more
    provider hops up, at most one peer hop, then only customer hops
    down? *)
