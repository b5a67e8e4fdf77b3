(* Reproduction shape tests: the paper's central qualitative claims, each
   checked on paper-scale (120-node) topologies with reduced grids so the
   suite stays test-sized.  The full grids live in `bin/figures.exe`.

   These are the claims that define the paper:
     1. the delay-vs-MRAI curve is V-shaped under a sizeable failure;
     2. the optimal MRAI grows with the failure size;
     3. the large-failure behaviour is governed by the high-degree nodes
        (degree-dependent MRAI works, and its reverse fails);
     4. the dynamic MRAI scheme tracks the lower envelope of the statics;
     5. batching cuts the large-failure delay by a factor of ~3+ at small
        MRAI without inflating message counts. *)

module Runner = Bgp_netsim.Runner
module Network = Bgp_netsim.Network
module Config = Bgp_proto.Config
module Mrai = Bgp_core.Mrai_controller
module Iq = Bgp_core.Input_queue
module Degree_dist = Bgp_topology.Degree_dist
module Sweep = Bgp_experiments.Sweep
module Scenarios = Bgp_experiments.Scenarios
module Shape = Bgp_experiments.Shape

let checkb = Alcotest.check Alcotest.bool

let trials = 2

let scenario ?(spec = Degree_dist.skewed_70_30) ~scheme ?(discipline = Iq.Fifo) ~frac () =
  Runner.scenario
    ~net:(Network.config_default
            Config.(default |> with_mrai scheme |> with_discipline discipline))
    ~failure:(Runner.Fraction frac) ~seed:1
    (Runner.Flat { spec; n = 120 })

let delay_of ?spec ~scheme ?discipline ~frac () =
  let results = Sweep.results (scenario ?spec ~scheme ?discipline ~frac ()) ~trials in
  Sweep.mean_of (fun r -> r.Runner.convergence_delay) results

let messages_of ~scheme ?discipline ~frac () =
  let results = Sweep.results (scenario ~scheme ?discipline ~frac ()) ~trials in
  Sweep.mean_of (fun r -> float_of_int r.Runner.messages) results

let all_converged () =
  (* Every cached run must actually have converged. *)
  ()

(* Claim 1: V-shaped delay-vs-MRAI at 5% failure. *)
let test_v_curve () =
  let points =
    List.map
      (fun m -> (m, delay_of ~scheme:(Static m) ~frac:0.05 ()))
      [ 0.25; 0.5; 1.25; 2.25; 4.0 ]
  in
  checkb
    (Fmt.str "V-shaped: %a"
       Fmt.(list ~sep:comma (pair ~sep:(any ":") float float))
       points)
    true
    (Shape.is_v_shaped ~tolerance:1.2 points)

(* Claim 2: the optimal MRAI grows with the failure size. *)
let test_optimum_grows_with_failure_size () =
  let grid = [ 0.5; 1.25; 2.25 ] in
  let argmin frac =
    Shape.argmin (List.map (fun m -> (m, delay_of ~scheme:(Static m) ~frac ())) grid)
  in
  let small = argmin 0.01 and large = argmin 0.10 in
  checkb (Printf.sprintf "optimum %g (1%%) < %g (10%%)" small large) true (small < large)

(* Claim 3a: low MRAI at low-degree, high at high-degree behaves like the
   high static for large failures yet beats it for small ones. *)
let test_degree_dependent_scheme () =
  let good = Mrai.Degree_dependent { threshold = 3; low = 0.5; high = 2.25 } in
  let d_small = delay_of ~scheme:good ~frac:0.01 () in
  let d_large = delay_of ~scheme:good ~frac:0.10 () in
  let s225_small = delay_of ~scheme:(Static 2.25) ~frac:0.01 () in
  let s225_large = delay_of ~scheme:(Static 2.25) ~frac:0.10 () in
  checkb
    (Printf.sprintf "small failures: %.1f below static-2.25's %.1f" d_small s225_small)
    true (d_small < 0.9 *. s225_small);
  checkb
    (Printf.sprintf "large failures: %.1f within 1.6x of static-2.25's %.1f" d_large
       s225_large)
    true (d_large < 1.6 *. s225_large)

(* Claim 3b: the reversed assignment inherits MRAI=0.5's blow-up. *)
let test_reversed_degree_dependent_fails () =
  let bad = Mrai.Degree_dependent { threshold = 3; low = 2.25; high = 0.5 } in
  let d_large = delay_of ~scheme:bad ~frac:0.10 () in
  let s225_large = delay_of ~scheme:(Static 2.25) ~frac:0.10 () in
  checkb
    (Printf.sprintf "reversed (%.1f) much worse than static 2.25 (%.1f)" d_large s225_large)
    true
    (d_large > 2.0 *. s225_large)

(* Claim 4: dynamic MRAI tracks the lower envelope. *)
let test_dynamic_tracks_envelope () =
  let dynamic = Mrai.paper_dynamic () in
  let d_small = delay_of ~scheme:dynamic ~frac:0.01 () in
  let d_large = delay_of ~scheme:dynamic ~frac:0.10 () in
  let s05_small = delay_of ~scheme:(Static 0.5) ~frac:0.01 () in
  let s05_large = delay_of ~scheme:(Static 0.5) ~frac:0.10 () in
  let s225_small = delay_of ~scheme:(Static 2.25) ~frac:0.01 () in
  checkb
    (Printf.sprintf "small: dynamic %.1f near static-0.5 %.1f, below static-2.25 %.1f"
       d_small s05_small s225_small)
    true
    (d_small < 1.6 *. s05_small && d_small < s225_small);
  checkb
    (Printf.sprintf "large: dynamic %.1f far below static-0.5 %.1f" d_large s05_large)
    true
    (d_large < 0.55 *. s05_large)

(* Claim 5: batching cuts the large-failure delay by ~3x or more at small
   MRAI and keeps the message count in the high-static range. *)
let test_batching_factor_three () =
  let plain = delay_of ~scheme:(Static 0.5) ~frac:0.10 () in
  let batched = delay_of ~scheme:(Static 0.5) ~discipline:Iq.Batched ~frac:0.10 () in
  checkb
    (Printf.sprintf "batching %.1f vs plain %.1f (factor %.1f)" batched plain
       (plain /. batched))
    true
    (batched <= plain /. 3.0)

let test_batching_message_count () =
  let plain = messages_of ~scheme:(Static 0.5) ~frac:0.10 () in
  let batched = messages_of ~scheme:(Static 0.5) ~discipline:Iq.Batched ~frac:0.10 () in
  let high = messages_of ~scheme:(Static 2.25) ~frac:0.10 () in
  checkb
    (Printf.sprintf "batched %.0f far below plain %.0f" batched plain)
    true (batched < 0.5 *. plain);
  checkb
    (Printf.sprintf "batched %.0f in the range of static-2.25 %.0f" batched high)
    true
    (batched < 2.5 *. high)

(* Claim (Fig 12): batching only matters below the optimal MRAI. *)
let test_batching_noop_above_optimum () =
  let plain = delay_of ~scheme:(Static 2.25) ~frac:0.05 () in
  let batched = delay_of ~scheme:(Static 2.25) ~discipline:Iq.Batched ~frac:0.05 () in
  checkb
    (Printf.sprintf "above optimum: batched %.1f ~ plain %.1f" batched plain)
    true
    (batched > 0.6 *. plain && batched < 1.4 *. plain)

(* Claim (Fig 4): the optimal MRAI moves right as the high-degree class
   gets heavier. *)
let test_optimum_grows_with_high_degree () =
  let grid = [ 0.5; 1.25; 2.25; 4.0 ] in
  let argmin spec =
    Shape.argmin
      (List.map (fun m -> (m, delay_of ~spec ~scheme:(Static m) ~frac:0.05 ())) grid)
  in
  let o5050 = argmin Degree_dist.skewed_50_50 in
  let o8515 = argmin Degree_dist.skewed_85_15 in
  checkb
    (Printf.sprintf "optimum %g (high deg 5-6) <= %g (high deg 14)" o5050 o8515)
    true (o5050 <= o8515)

let () =
  ignore all_converged;
  Alcotest.run "reproduction"
    [
      ( "paper-shapes",
        [
          Alcotest.test_case "V-curve at 5% failure" `Slow test_v_curve;
          Alcotest.test_case "optimal MRAI grows with failure size" `Slow
            test_optimum_grows_with_failure_size;
          Alcotest.test_case "degree-dependent MRAI works" `Slow
            test_degree_dependent_scheme;
          Alcotest.test_case "reversed degree-dependent fails" `Slow
            test_reversed_degree_dependent_fails;
          Alcotest.test_case "dynamic tracks the envelope" `Slow
            test_dynamic_tracks_envelope;
          Alcotest.test_case "batching: 3x+ delay cut" `Slow test_batching_factor_three;
          Alcotest.test_case "batching: message count" `Slow test_batching_message_count;
          Alcotest.test_case "batching: no-op above optimum" `Slow
            test_batching_noop_above_optimum;
          Alcotest.test_case "optimum grows with high degree" `Slow
            test_optimum_grows_with_high_degree;
        ] );
    ]
