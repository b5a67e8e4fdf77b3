module Runner = Bgp_netsim.Runner
module Network = Bgp_netsim.Network
module Config = Bgp_proto.Config
module Mrai = Bgp_core.Mrai_controller
module Iq = Bgp_core.Input_queue
module Degree_dist = Bgp_topology.Degree_dist

(* Ablations use a trimmed failure-size grid: one small, one large. *)
let ablation_sizes (opts : Scenarios.opts) =
  match opts.sizes with
  | [] -> [ 0.05; 0.15 ]
  | sizes ->
    let small = List.hd sizes and large = List.hd (List.rev sizes) in
    if small = large then [ small ] else [ small; large ]

let series opts ~label ~metric make_scenario =
  Figures.series_over opts ~label ~metric ~xs:(ablation_sizes opts)
    ~x_of:(fun frac -> frac *. 100.0)
    make_scenario

let flat_scenario (opts : Scenarios.opts) config frac =
  Runner.scenario
    ~net:(Network.config_default config)
    ~failure:(Runner.Fraction frac) ~seed:opts.seed
    (Runner.Flat { spec = Degree_dist.skewed_70_30; n = opts.n })

let config_series opts ~label ?(metric = Figures.delay) config =
  series opts ~label ~metric (fun frac -> flat_scenario opts config frac)

(* --- Overload detectors (Section 4.3) ----------------------------------- *)

let dynamic_with detector ~up ~down =
  Mrai.Dynamic
    { levels = [| 0.5; 1.25; 2.25 |]; up_threshold = up; down_threshold = down; detector }

let detectors opts =
  {
    Figure.id = "ablation-detectors";
    title = "Dynamic MRAI overload detectors";
    xlabel = "failure %";
    ylabel = "convergence delay (s)";
    series =
      [
        config_series opts ~label:"queue work (paper)"
          Config.(with_mrai (dynamic_with Mrai.Queue_work ~up:0.65 ~down:0.05) default);
        config_series opts ~label:"utilization"
          Config.(with_mrai (dynamic_with Mrai.Utilization ~up:0.85 ~down:0.30) default);
        config_series opts ~label:"message count"
          Config.(
            with_mrai (dynamic_with Mrai.Message_count ~up:60.0 ~down:5.0) default);
        config_series opts ~label:"static 0.5" Config.(with_mrai (Static 0.5) default);
      ];
    paper_expectation =
      "Section 4.3: the queue-work detector works best; utilization is \
       'promising'; the message-count detector is hard to tune";
  }

(* --- Batching decomposition ----------------------------------------------- *)

let batching_decomposition opts =
  let base = Config.(with_mrai (Static 0.5) default) in
  {
    Figure.id = "ablation-batching";
    title = "Batching decomposition (MRAI=0.5)";
    xlabel = "failure %";
    ylabel = "convergence delay (s)";
    series =
      [
        config_series opts ~label:"fifo" base;
        config_series opts ~label:"fifo + stale elimination"
          Config.(with_discipline Iq.Fifo_dedup base);
        config_series opts ~label:"batched (elim + reorder)"
          Config.(with_discipline Iq.Batched base);
      ];
    paper_expectation =
      "Section 4.4 attributes the gain to removing stale updates and to \
       processing each destination together; this separates the two effects";
  }

(* --- TCP-buffer batching (Section 4.4, closing paragraph) ------------------ *)

let tcp_batching opts =
  let base = Config.(with_mrai (Static 0.5) default) in
  {
    Figure.id = "ablation-tcp-batch";
    title = "Today's TCP-buffer batching vs the paper's scheme (MRAI=0.5)";
    xlabel = "failure %";
    ylabel = "convergence delay (s)";
    series =
      [
        config_series opts ~label:"fifo" base;
        config_series opts ~label:"tcp batch (20/read)"
          Config.(with_discipline (Iq.Tcp_batch { batch_size = 20 }) base);
        config_series opts ~label:"batched (paper)"
          Config.(with_discipline Iq.Batched base);
      ];
    paper_expectation =
      "Section 4.4: per-TCP-read batching 'can provide some of the benefits' \
       but for large failures the probability of two same-destination \
       updates sharing a read drops, so the paper's scheme should win by \
       a growing margin";
  }

(* --- Deshpande-Sikdar bypasses (Section 2) -------------------------------- *)

let ds_configs =
  [
    ("MRAI=2.25", Config.(with_mrai (Static 2.25) default));
    ( "cancel on improvement",
      Config.(
        { (with_mrai (Static 2.25) default) with mrai_bypass = Cancel_on_improvement }) );
    ( "flap threshold 2",
      Config.(
        { (with_mrai (Static 2.25) default) with mrai_bypass = Flap_threshold 2 }) );
    ("dynamic (paper)", Config.(with_mrai (Mrai.paper_dynamic ()) default));
    ( "batching (paper)",
      Config.(default |> with_mrai (Static 0.5) |> with_discipline Iq.Batched) );
  ]

let deshpande_sikdar opts =
  {
    Figure.id = "ablation-ds-delay";
    title = "Deshpande-Sikdar MRAI bypasses vs the paper's schemes (delay)";
    xlabel = "failure %";
    ylabel = "convergence delay (s)";
    series = List.map (fun (label, c) -> config_series opts ~label c) ds_configs;
    paper_expectation =
      "Section 2: the bypass schemes reduce convergence delay but the \
       number of update messages 'went up considerably'";
  }

let deshpande_sikdar_messages opts =
  {
    Figure.id = "ablation-ds-messages";
    title = "Deshpande-Sikdar MRAI bypasses vs the paper's schemes (messages)";
    xlabel = "failure %";
    ylabel = "update messages";
    series =
      List.map
        (fun (label, c) -> config_series opts ~label ~metric:Figures.messages c)
        ds_configs;
    paper_expectation = "the bypasses pay for their speed in update messages";
  }

(* --- MRAI timer granularity ------------------------------------------------ *)

let mrai_mode opts =
  let base = Config.(with_mrai (Static 2.25) default) in
  {
    Figure.id = "ablation-mrai-mode";
    title = "Per-peer vs per-destination MRAI (MRAI=2.25)";
    xlabel = "failure %";
    ylabel = "convergence delay (s)";
    series =
      [
        config_series opts ~label:"per-peer (Internet practice)" base;
        config_series opts ~label:"per-destination"
          { base with Config.mrai_mode = Config.Per_dest };
      ];
    paper_expectation =
      "Section 2: per-destination timers are the textbook variant that the \
       Internet abandoned for scalability; behaviourally they pace less \
       because unrelated destinations no longer share a gate";
  }

(* --- Withdrawal pacing (WRATE) --------------------------------------------- *)

let withdrawal_pacing opts =
  let base = Config.(with_mrai (Static 2.25) default) in
  {
    Figure.id = "ablation-wrate";
    title = "Withdrawal pacing (MRAI=2.25)";
    xlabel = "failure %";
    ylabel = "convergence delay (s)";
    series =
      [
        config_series opts ~label:"unpaced withdrawals (RFC)" base;
        config_series opts ~label:"paced withdrawals (WRATE)"
          { base with Config.mrai_on_withdrawals = true };
      ];
    paper_expectation =
      "RFC 1771 exempts withdrawals from the MRAI; pacing them (WRATE) slows \
       down bad-news propagation after large failures";
  }

(* --- Sender-side loop check -------------------------------------------------- *)

let loop_check opts =
  let base = Config.(with_mrai (Static 1.25) default) in
  {
    Figure.id = "ablation-loop-check";
    title = "Sender-side loop check (MRAI=1.25, message cost)";
    xlabel = "failure %";
    ylabel = "update messages";
    series =
      [
        config_series opts ~label:"check on" ~metric:Figures.messages base;
        config_series opts ~label:"check off" ~metric:Figures.messages
          { base with Config.sender_side_loop_check = false };
      ];
    paper_expectation =
      "without the sender-side check a router advertises paths the receiver \
       must discard (receiver-side loop detection), inflating message counts";
  }

(* --- Network size scaling ------------------------------------------------------ *)

let size_scaling (opts : Scenarios.opts) =
  let series_for n =
    series opts
      ~label:(Printf.sprintf "%d nodes" n)
      ~metric:Figures.delay
      (fun frac ->
        Runner.scenario
          ~net:(Network.config_default Config.(with_mrai (Static 1.25) default))
          ~failure:(Runner.Fraction frac) ~seed:opts.seed
          (Runner.Flat { spec = Degree_dist.skewed_70_30; n }))
  in
  {
    Figure.id = "ablation-size";
    title = "Network size scaling (MRAI=1.25)";
    xlabel = "failure %";
    ylabel = "convergence delay (s)";
    series = List.map series_for [ 60; 120; 240 ];
    paper_expectation =
      "Section 4: 60- and 240-node networks show the same trends; delay \
       grows with network size (the authors' earlier ICC'06 result)";
  }

(* --- Destination-count scaling (Section 5) ------------------------------------------ *)

let prefix_scaling (opts : Scenarios.opts) =
  let s ppa =
    let config =
      { (Config.with_mrai (Static 1.25) Config.default) with Config.prefixes_per_as = ppa }
    in
    series opts
      ~label:(Printf.sprintf "%d prefixes/AS" ppa)
      ~metric:Figures.delay
      (fun frac ->
        Runner.scenario
          ~net:(Network.config_default config)
          ~failure:(Runner.Fraction frac) ~seed:opts.seed
          (Runner.Flat { spec = Degree_dist.skewed_70_30; n = opts.n / 2 }))
  in
  {
    Figure.id = "ablation-prefixes";
    title = "Destination-count scaling (MRAI=1.25, half-size topology)";
    xlabel = "failure %";
    ylabel = "convergence delay (s)";
    series = List.map s [ 1; 2; 4 ];
    paper_expectation =
      "Section 5: the real Internet's ~200k destinations multiply the \
       update load, so overload (and with it the paper's schemes' value) \
       persists despite faster routers; delay grows with the prefix count";
  }

(* --- Gao-Rexford policies --------------------------------------------------------- *)

let policies opts =
  let base = Config.(with_mrai (Static 1.25) default) in
  let s label policies =
    series opts ~label ~metric:Figures.delay (fun frac ->
        Runner.scenario
          ~net:(Network.config_default base)
          ~failure:(Runner.Fraction frac) ~seed:opts.seed ~policies
          (Runner.Flat { spec = Degree_dist.skewed_70_30; n = opts.n }))
  in
  {
    Figure.id = "ablation-policies";
    title = "Policy-free (paper) vs Gao-Rexford valley-free policies (MRAI=1.25)";
    xlabel = "failure %";
    ylabel = "convergence delay (s)";
    series = [ s "policy-free (paper)" false; s "valley-free policies" true ];
    paper_expectation =
      "the paper runs policy-free; valley-free export restricts the set of \
       alternate paths, which shrinks path exploration (fewer messages) \
       and typically shortens convergence";
  }

(* --- Route flap damping (RFC 2439) ---------------------------------------------- *)

let damping opts =
  let base = Config.(with_mrai (Static 1.25) default) in
  {
    Figure.id = "ablation-damping";
    title = "Route flap damping during large failures (MRAI=1.25)";
    xlabel = "failure %";
    ylabel = "convergence delay (s)";
    series =
      [
        config_series opts ~label:"no damping (paper)" base;
        config_series opts ~label:"damping (sim-scaled RFC 2439)"
          { base with Config.damping = Some Bgp_core.Damping.sim_config };
      ];
    paper_expectation =
      "damping is the classic anti-churn mechanism; it parks exploratory \
       flaps (fast for small failures) but loses its edge for large \
       failures and leaves suppressed destinations unreachable meanwhile \
       (Mao et al., SIGCOMM'02) — the paper's schemes pace/batch instead";
  }

(* --- Failure detection --------------------------------------------------------- *)

let detection opts =
  let base = Config.(with_mrai (Static 1.25) default) in
  let with_detection detection =
    { (Network.config_default base) with Network.detection }
  in
  let s label net_config =
    series opts ~label ~metric:Figures.delay (fun frac ->
        Runner.scenario ~net:net_config ~failure:(Runner.Fraction frac) ~seed:opts.seed
          (Runner.Flat { spec = Degree_dist.skewed_70_30; n = opts.n }))
  in
  {
    Figure.id = "ablation-detection";
    title = "Failure detection: link signal vs BGP hold timer (MRAI=1.25)";
    xlabel = "failure %";
    ylabel = "convergence delay (s)";
    series =
      [
        s "link signal (25 ms, paper)" (with_detection Network.Link_signal);
        s "hold timer 90 s (RFC)" (with_detection (Network.Hold_timer 90.0));
        s "hold timer 9 s (tuned)" (with_detection (Network.Hold_timer 9.0));
      ];
    paper_expectation =
      "the paper (like most SSFNet studies) assumes link-layer detection; \
       with RFC hold timers the detection latency dominates re-convergence \
       after a silent failure";
  }

(* --- Immediate dynamic level application (Section 5) --------------------------- *)

let dynamic_restart opts =
  let base = Config.(with_mrai (Mrai.paper_dynamic ()) default) in
  {
    Figure.id = "ablation-restart";
    title = "Dynamic MRAI: immediate level application (Section 5 future work)";
    xlabel = "failure %";
    ylabel = "convergence delay (s)";
    series =
      [
        config_series opts ~label:"at natural restart (paper)" base;
        config_series opts ~label:"re-arm running timers"
          { base with Config.dynamic_restart_timers = true };
      ];
    paper_expectation =
      "the paper notes the level change only takes effect when a timer \
       restarts and lists faster response as future work; this implements it";
  }

let all =
  [
    ("detectors", detectors);
    ("batching-decomposition", batching_decomposition);
    ("tcp-batching", tcp_batching);
    ("ds-delay", deshpande_sikdar);
    ("ds-messages", deshpande_sikdar_messages);
    ("mrai-mode", mrai_mode);
    ("prefix-scaling", prefix_scaling);
    ("policies", policies);
    ("wrate", withdrawal_pacing);
    ("loop-check", loop_check);
    ("damping", damping);
    ("detection", detection);
    ("size-scaling", size_scaling);
    ("dynamic-restart", dynamic_restart);
  ]
