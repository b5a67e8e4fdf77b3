(** One constructor per figure of the paper's evaluation (Figs 1-13).

    Each function simulates the corresponding sweep (through the shared
    {!Sweep} cache) and returns a {!Figure.t} whose series mirror the
    curves in the paper.  Pass {!Scenarios.quick} for a cut-down smoke
    version, {!Scenarios.default} for the paper-scale version. *)

val delay : Bgp_netsim.Runner.result -> float
val messages : Bgp_netsim.Runner.result -> float
(** A trial's convergence delay (s) and its update messages after the
    failure: the metrics the figures plot. *)

val series_over :
  Scenarios.opts ->
  label:string ->
  metric:(Bgp_netsim.Runner.result -> float) ->
  xs:'a list ->
  x_of:('a -> float) ->
  ('a -> Bgp_netsim.Runner.scenario) ->
  Figure.series
(** One curve: a scenario per x, all prefetched in one batch so the
    trials fan out across the whole series, then one {!Sweep.point} per x
    plotted at [x_of x].  The ablations build their curves with it too. *)

val fig01 : Scenarios.opts -> Figure.t
(** Convergence delay vs failure size for MRAI 0.5 / 1.25 / 2.25 s. *)

val fig02 : Scenarios.opts -> Figure.t
(** Update messages vs failure size, same runs as Fig 1. *)

val fig03 : Scenarios.opts -> Figure.t
(** Delay vs MRAI for failures of 1%, 5% and 10% (the V-curves). *)

val fig04 : Scenarios.opts -> Figure.t
(** Delay vs MRAI at 5% failure for the 50-50 / 70-30 / 85-15 degree
    distributions (same average degree 3.8). *)

val fig05 : Scenarios.opts -> Figure.t
(** Delay vs MRAI at 5% failure for 50-50 with average degree 3.8 vs
    7.6. *)

val fig06 : Scenarios.opts -> Figure.t
(** Degree-dependent MRAI vs constant MRAIs, over failure size. *)

val fig07 : Scenarios.opts -> Figure.t
(** Dynamic MRAI (0.5/1.25/2.25, upTh .65, downTh .05) vs the three
    statics, over failure size. *)

val fig08 : Scenarios.opts -> Figure.t
(** Dynamic scheme with downTh = 0 and upTh in {0.2, 0.65, 1.25}. *)

val fig09 : Scenarios.opts -> Figure.t
(** Dynamic scheme with upTh = 0.65 and downTh in {0, 0.05, 0.3}. *)

val fig10 : Scenarios.opts -> Figure.t
(** Batching (MRAI 0.5) vs dynamic vs batching+dynamic vs statics;
    delay over failure size. *)

val fig11 : Scenarios.opts -> Figure.t
(** Messages generated: batching vs MRAI 0.5 and 2.25. *)

val fig12 : Scenarios.opts -> Figure.t
(** Delay at 5% failure vs MRAI, with and without batching. *)

val fig13 : Scenarios.opts -> Figure.t
(** Batching / dynamic / combined on realistic multi-router topologies. *)

val all : (string * (Scenarios.opts -> Figure.t)) list
(** [("fig1", fig01); ...] in paper order. *)

val by_id : string -> (Scenarios.opts -> Figure.t) option
(** Accepts "fig1", "fig01", "1", ... *)
