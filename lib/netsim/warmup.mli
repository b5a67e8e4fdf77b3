(** Analytic warm-up: compute BGP's steady state directly and install it,
    skipping the cold-start convergence simulation.

    Policy-free shortest-AS-path BGP with deterministic tie-breaks has a
    unique stable state, computable per destination by a Dijkstra-style
    label-settling pass over the session graph (eBGP edges strictly grow
    the AS-path length; iBGP edges strictly worsen the eBGP-beats-iBGP
    tie-break, so ranks are monotone along edges).  The export rule is the
    same pure function ({!Bgp_proto.Export}) the live router uses, so the
    installed state is exactly what a simulated warm-up converges to —
    asserted by the `warmup-equivalence` integration test. *)

val install : Network.t -> unit
(** Install the steady state into every router of a freshly built (not yet
    started) network: Adj-RIB-In, Loc-RIB and Adj-RIB-Out for every
    destination.  Do not also call {!Network.start_all}. *)
