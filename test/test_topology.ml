(* Unit and property tests for the topology generators. *)

module Rng = Bgp_engine.Rng
module Graph = Bgp_topology.Graph
module Geometry = Bgp_topology.Geometry
module Degree_dist = Bgp_topology.Degree_dist
module Models = Bgp_topology.Models
module Topology = Bgp_topology.Topology
module As_topology = Bgp_topology.As_topology
module Failure = Bgp_topology.Failure

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* --- Geometry ------------------------------------------------------------ *)

let test_distance () =
  let a = { Geometry.x = 0.0; y = 0.0 } and b = { Geometry.x = 3.0; y = 4.0 } in
  checkf "3-4-5 triangle" 5.0 (Geometry.distance a b);
  checkf "self distance" 0.0 (Geometry.distance a a)

let test_random_point_on_grid () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let p = Geometry.random_point rng in
    checkb "on grid" true
      (p.Geometry.x >= 0.0 && p.Geometry.x <= 1000.0 && p.Geometry.y >= 0.0
      && p.Geometry.y <= 1000.0)
  done

let test_disc_point_within_radius () =
  let rng = Rng.create 2 in
  let center = Geometry.grid_center in
  for _ = 1 to 1000 do
    let p = Geometry.random_point_in_disc rng ~center ~radius:50.0 in
    checkb "within radius" true (Geometry.distance p center <= 50.0 +. 1e-9)
  done

(* --- Graph ---------------------------------------------------------------- *)

let test_graph_basic () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  checki "edges" 2 (Graph.num_edges g);
  checkb "mem" true (Graph.mem_edge g 0 1);
  checkb "symmetric" true (Graph.mem_edge g 1 0);
  checkb "absent" false (Graph.mem_edge g 0 2);
  checki "degree" 2 (Graph.degree g 1);
  Alcotest.check Alcotest.(list int) "neighbors sorted" [ 0; 2 ] (Graph.neighbors g 1)

let test_graph_idempotent_add () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 0;
  checki "single edge" 1 (Graph.num_edges g)

let test_graph_no_self_loop () =
  let g = Graph.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1)

let test_graph_remove () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  Graph.remove_edge g 0 1;
  checki "removed" 0 (Graph.num_edges g);
  Graph.remove_edge g 0 1 (* no-op *)

let test_graph_connectivity () =
  let g = Graph.create 5 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  checkb "disconnected" false (Graph.is_connected g);
  checki "components" 3 (List.length (Graph.connected_components g));
  Graph.add_edge g 2 3;
  Graph.add_edge g 3 4;
  checkb "connected" true (Graph.is_connected g)

let test_graph_bfs () =
  let g = Graph.create 5 in
  (* path 0-1-2-3, isolated 4 *)
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 2 3;
  let d = Graph.bfs_dist g ~src:0 in
  Alcotest.check Alcotest.(array int) "distances" [| 0; 1; 2; 3; max_int |] d

let test_graph_connected_subset () =
  let g = Graph.create 4 in
  (* square 0-1-2-3-0 *)
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 2 3;
  Graph.add_edge g 3 0;
  checkb "without one corner still connected" true
    (Graph.is_connected_subset g ~keep:(fun v -> v <> 0));
  let g2 = Graph.create 3 in
  (* path 0-1-2; removing the middle disconnects *)
  Graph.add_edge g2 0 1;
  Graph.add_edge g2 1 2;
  checkb "without cut vertex disconnected" false
    (Graph.is_connected_subset g2 ~keep:(fun v -> v <> 1))

(* --- Degree distributions -------------------------------------------------- *)

let spec_list =
  [
    ("70-30", Degree_dist.skewed_70_30, 3.8);
    ("50-50", Degree_dist.skewed_50_50, 3.75);
    ("85-15", Degree_dist.skewed_85_15, 3.8);
    ("50-50 dense", Degree_dist.skewed_50_50_dense, 7.75);
  ]

let test_mean_degrees () =
  List.iter
    (fun (name, spec, expected) ->
      Alcotest.check (Alcotest.float 0.01) name expected (Degree_dist.mean_degree spec))
    spec_list

let test_sequence_realizes_exactly () =
  let rng = Rng.create 10 in
  let degrees = Degree_dist.sample_sequence Degree_dist.skewed_70_30 rng ~n:120 in
  let g = Degree_dist.realize rng degrees in
  Array.iteri
    (fun v d -> checki (Printf.sprintf "degree of %d" v) d (Graph.degree g v))
    degrees

let test_internet_like_shape () =
  let rng = Rng.create 11 in
  let counts = Array.make 41 0 in
  let total = 20_000 in
  let degrees = Degree_dist.sample_sequence Degree_dist.internet_like rng ~n:total in
  Array.iter (fun d -> counts.(Stdlib.min d 40) <- counts.(Stdlib.min d 40) + 1) degrees;
  let below4 = float_of_int (counts.(1) + counts.(2) + counts.(3)) /. float_of_int total in
  checkb "~70-80% below degree 4" true (below4 > 0.6 && below4 < 0.85);
  let mean = Degree_dist.mean_degree Degree_dist.internet_like in
  checkb "average degree ~3.4" true (mean > 2.9 && mean < 3.9);
  checkb "max degree 40 respected" true (Array.for_all (fun d -> d <= 40) degrees)

let test_is_graphical () =
  checkb "simple" true (Degree_dist.is_graphical [| 1; 1 |]);
  checkb "triangle" true (Degree_dist.is_graphical [| 2; 2; 2 |]);
  checkb "odd sum" false (Degree_dist.is_graphical [| 1; 1; 1 |]);
  checkb "hub too big" false (Degree_dist.is_graphical [| 3; 1; 1 |]);
  checkb "two big hubs among leaves" false
    (Degree_dist.is_graphical [| 9; 9; 1; 1; 1; 1; 1; 1; 1; 1 |])

(* Every spec, indexed as the property below draws it (topology seed
   [n * 13 + which]); 50-50-dense comes last so the property's four
   indices keep their seeds. *)
let generator_specs =
  [|
    Degree_dist.skewed_70_30;
    Degree_dist.skewed_50_50;
    Degree_dist.skewed_85_15;
    Degree_dist.internet_like;
    Degree_dist.skewed_50_50_dense;
  |]

let generates_connected n which =
  let rng = Rng.create ((n * 13) + which) in
  let g = Degree_dist.generate generator_specs.(which) rng ~n in
  Graph.is_connected g && Graph.num_nodes g = n

let prop_generate_connected =
  QCheck.Test.make ~name:"generated graphs are connected simple graphs" ~count:30
    QCheck.(pair (int_range 10 150) (int_range 0 3))
    (fun (n, which) -> generates_connected n which)

(* The property's inputs, exhaustively: every spec at every n in 10-150.
   This covers the leaf-heavy power-law draws that need the n - 1 edge
   repair (e.g. n = 38, internet-like, topology seed 497). *)
let test_generate_every_size () =
  for n = 10 to 150 do
    Array.iteri
      (fun which _ ->
        if not (generates_connected n which) then
          Alcotest.failf "n = %d, spec %d: not a connected %d-node graph" n which n)
      generator_specs
  done

(* The sequence contract {!Degree_dist.realize} relies on, down to n = 2
   where the clamp and both repairs bite hardest: length n, degrees in
   [1, n - 1], an even sum of at least 2(n - 1), and graphical.  Ten
   sequence seeds per spec and size reach leaf-heavy draws that fall
   short of n - 1 edges before the repair. *)
let test_sequence_contract () =
  for n = 2 to 150 do
    Array.iteri
      (fun which spec ->
        for seed = 1 to 10 do
          let degrees = Degree_dist.sample_sequence spec (Rng.create seed) ~n in
          let sum = Array.fold_left ( + ) 0 degrees in
          let where = Printf.sprintf "n = %d, spec %d, seed %d" n which seed in
          checki (where ^ ": length") n (Array.length degrees);
          checkb (where ^ ": degrees in [1, n - 1]") true
            (Array.for_all (fun d -> d >= 1 && d <= n - 1) degrees);
          checkb (where ^ ": even sum") true (sum mod 2 = 0);
          checkb (where ^ ": at least n - 1 edges") true (sum >= 2 * (n - 1));
          checkb (where ^ ": graphical") true (Degree_dist.is_graphical degrees)
        done)
      generator_specs
  done

let prop_two_class_split_exact =
  QCheck.Test.make ~name:"two-class sequences honour the class split" ~count:30
    (QCheck.int_range 20 200)
    (fun n ->
      let rng = Rng.create n in
      let degrees = Degree_dist.sample_sequence Degree_dist.skewed_70_30 rng ~n in
      (* 30% of nodes have degree 8 (one may be perturbed by the even-sum
         bump or graphicality repair). *)
      let high = Array.fold_left (fun acc d -> if d >= 7 then acc + 1 else acc) 0 degrees in
      let expected = int_of_float (Float.round (0.3 *. float_of_int n)) in
      abs (high - expected) <= 1)

let prop_avg_degree_close =
  QCheck.Test.make ~name:"realized average degree tracks the spec" ~count:20
    (QCheck.int_range 60 240)
    (fun n ->
      let rng = Rng.create (n + 7) in
      let g = Degree_dist.generate Degree_dist.skewed_70_30 rng ~n in
      Float.abs (Graph.avg_degree g -. 3.8) < 0.5)

(* --- Classic models --------------------------------------------------------- *)

let test_waxman_connected () =
  let rng = Rng.create 20 in
  let positions = Array.init 60 (fun _ -> Geometry.random_point rng) in
  let g = Models.waxman rng ~positions ~alpha:0.15 ~beta:0.2 in
  checkb "connected" true (Graph.is_connected g);
  checki "nodes" 60 (Graph.num_nodes g)

let test_barabasi_albert () =
  let rng = Rng.create 21 in
  let g = Models.barabasi_albert rng ~n:100 ~m:2 in
  checkb "connected" true (Graph.is_connected g);
  (* Preferential attachment produces hubs well above m. *)
  checkb "has hubs" true (Graph.max_degree g > 6);
  checkb "avg degree ~2m" true (Float.abs (Graph.avg_degree g -. 4.0) < 1.0)

let test_glp () =
  let rng = Rng.create 22 in
  let g = Models.glp rng ~n:100 ~m:1 ~p:0.4 ~beta:0.6 in
  checkb "connected" true (Graph.is_connected g);
  checki "nodes" 100 (Graph.num_nodes g)

(* --- Topology / As_topology -------------------------------------------------- *)

let test_flat_topology () =
  let rng = Rng.create 30 in
  let topo = Topology.flat rng ~spec:Degree_dist.skewed_70_30 ~n:60 in
  checkb "valid" true (Topology.validate topo = Ok ());
  checki "one router per AS" 60 topo.Topology.n_ases;
  checkb "all sessions are eBGP" true
    (Graph.fold_edges (fun u v acc -> acc && Topology.is_ebgp topo u v) topo.Topology.graph
       true);
  checki "inter-AS degree = graph degree" (Graph.degree topo.Topology.graph 0)
    (Topology.inter_as_degree topo 0)

let test_realistic_topology () =
  let rng = Rng.create 31 in
  let topo = As_topology.generate rng (As_topology.default ~n_ases:40) in
  checkb "valid" true (Topology.validate topo = Ok ());
  checki "AS count" 40 topo.Topology.n_ases;
  checkb "has multi-router ASes" true (Topology.num_routers topo > 40);
  for a = 0 to 39 do
    let size = List.length (Topology.routers_of_as topo a) in
    checkb "size in [1,100]" true (size >= 1 && size <= 100)
  done

let test_realistic_biggest_as_best_connected () =
  let rng = Rng.create 32 in
  let topo = As_topology.generate rng (As_topology.default ~n_ases:40) in
  let as_size a = List.length (Topology.routers_of_as topo a) in
  let inter_as_degree_of_as a =
    let foreign = ref [] in
    List.iter
      (fun r ->
        List.iter
          (fun v ->
            let b = topo.Topology.as_of_router.(v) in
            if b <> a then foreign := b :: !foreign)
          (Graph.neighbors topo.Topology.graph r))
      (Topology.routers_of_as topo a);
    List.length (List.sort_uniq Int.compare !foreign)
  in
  let all_ases = List.init 40 Fun.id in
  let largest =
    List.fold_left (fun acc a -> if as_size a > as_size acc then a else acc) 0 all_ases
  in
  let smallest =
    List.fold_left (fun acc a -> if as_size a < as_size acc then a else acc) 0 all_ases
  in
  checkb "largest AS at least as connected as smallest" true
    (inter_as_degree_of_as largest >= inter_as_degree_of_as smallest)

(* --- Failure -------------------------------------------------------------------- *)

let test_failure_fraction_count () =
  let rng = Rng.create 40 in
  let topo = Topology.flat rng ~spec:Degree_dist.skewed_70_30 ~n:120 in
  List.iter
    (fun frac ->
      let f = Failure.contiguous topo ~fraction:frac in
      checki
        (Printf.sprintf "count at %g" frac)
        (int_of_float (Float.round (frac *. 120.0)))
        f.Failure.count)
    [ 0.0; 0.01; 0.05; 0.10; 0.20; 1.0 ]

let test_failure_contiguity () =
  let rng = Rng.create 41 in
  let topo = Topology.flat rng ~spec:Degree_dist.skewed_70_30 ~n:120 in
  let f = Failure.contiguous topo ~fraction:0.1 in
  let center = f.Failure.center in
  List.iter
    (fun r ->
      checkb "failed within radius" true
        (Geometry.distance topo.Topology.positions.(r) center <= f.Failure.radius +. 1e-9))
    (Failure.failed_list f);
  List.iter
    (fun r ->
      checkb "survivor outside radius" true
        (Geometry.distance topo.Topology.positions.(r) center >= f.Failure.radius -. 1e-9))
    (Failure.survivors f)

let test_failure_single_and_list () =
  let rng = Rng.create 42 in
  let topo = Topology.flat rng ~spec:Degree_dist.skewed_70_30 ~n:20 in
  let f = Failure.single topo ~router:7 in
  checki "one failed" 1 f.Failure.count;
  checkb "router 7 failed" true (Failure.is_failed f 7);
  let f2 = Failure.of_list topo [ 1; 2; 2; 3 ] in
  checki "dedup count" 3 f2.Failure.count

let test_failure_none () =
  let rng = Rng.create 43 in
  let topo = Topology.flat rng ~spec:Degree_dist.skewed_70_30 ~n:20 in
  let f = Failure.none topo in
  checki "nothing failed" 0 f.Failure.count;
  checkb "survivors connected" true (Failure.survivors_connected topo f)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "topology"
    [
      ( "geometry",
        [
          Alcotest.test_case "distance" `Quick test_distance;
          Alcotest.test_case "random point on grid" `Quick test_random_point_on_grid;
          Alcotest.test_case "disc point within radius" `Quick test_disc_point_within_radius;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "idempotent add" `Quick test_graph_idempotent_add;
          Alcotest.test_case "no self loops" `Quick test_graph_no_self_loop;
          Alcotest.test_case "remove" `Quick test_graph_remove;
          Alcotest.test_case "connectivity" `Quick test_graph_connectivity;
          Alcotest.test_case "bfs" `Quick test_graph_bfs;
          Alcotest.test_case "connected subset" `Quick test_graph_connected_subset;
        ] );
      ( "degree_dist",
        [
          Alcotest.test_case "mean degrees" `Quick test_mean_degrees;
          Alcotest.test_case "exact realization" `Quick test_sequence_realizes_exactly;
          Alcotest.test_case "internet-like shape" `Quick test_internet_like_shape;
          Alcotest.test_case "Erdos-Gallai" `Quick test_is_graphical;
          qc ~rand:(Random.State.make [| 18 |]) prop_generate_connected;
          Alcotest.test_case "every spec at n = 10..150" `Quick test_generate_every_size;
          Alcotest.test_case "sequence contract at n = 2..150" `Quick test_sequence_contract;
          qc prop_two_class_split_exact;
          qc prop_avg_degree_close;
        ] );
      ( "models",
        [
          Alcotest.test_case "waxman" `Quick test_waxman_connected;
          Alcotest.test_case "barabasi-albert" `Quick test_barabasi_albert;
          Alcotest.test_case "glp" `Quick test_glp;
        ] );
      ( "topology",
        [
          Alcotest.test_case "flat" `Quick test_flat_topology;
          Alcotest.test_case "realistic" `Quick test_realistic_topology;
          Alcotest.test_case "largest AS best connected" `Quick
            test_realistic_biggest_as_best_connected;
        ] );
      ( "failure",
        [
          Alcotest.test_case "fraction count" `Quick test_failure_fraction_count;
          Alcotest.test_case "contiguity" `Quick test_failure_contiguity;
          Alcotest.test_case "single and list" `Quick test_failure_single_and_list;
          Alcotest.test_case "none" `Quick test_failure_none;
        ] );
    ]
