(* Shard-count invariance of the one engine.

   The contract under test: a scenario with [sharding = Some k] produces
   bit-identical results for every k >= 1 — delays to the bit, message
   and event counts exact, identical attribution component sums — because
   every delivery is ordered by the layout-free (arrival time, source
   router, send seq) key at globally-agreed barriers.  The default
   ([sharding = None]) is one shard; its 12 goldens live in
   test_golden.ml. *)

module Rng = Bgp_engine.Rng
module Runner = Bgp_netsim.Runner
module Network = Bgp_netsim.Network
module Trace = Bgp_netsim.Trace
module Attribution = Bgp_netsim.Attribution
module Config = Bgp_proto.Config
module Degree_dist = Bgp_topology.Degree_dist
module As_topology = Bgp_topology.As_topology
module Topology = Bgp_topology.Topology
module Partition = Bgp_topology.Partition
module Graph = Bgp_topology.Graph

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- The three representative scenario classes (same battery shape as
   test_parallel.ml) ------------------------------------------------------- *)

let flat_scenario =
  Runner.scenario
    ~net:(Network.config_default Config.(with_mrai (Static 1.25) default))
    ~failure:(Runner.Fraction 0.1) ~seed:3
    (Runner.Flat { spec = Degree_dist.skewed_70_30; n = 24 })

let realistic_scenario =
  Runner.scenario
    ~net:(Network.config_default Config.default)
    ~failure:(Runner.Fraction 0.1) ~seed:5
    (Runner.Realistic (As_topology.default ~n_ases:16))

let ring_topology n =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    Graph.add_edge g u ((u + 1) mod n)
  done;
  Topology.of_graph (Rng.create 99) g

let link_failure_scenario =
  Runner.scenario
    ~net:(Network.config_default Config.(with_mrai (Static 2.0) default))
    ~failure:(Runner.Links [ (0, 1); (3, 4) ])
    ~seed:7
    (Runner.Fixed (ring_topology 8))

(* --- Field-by-field result equality -------------------------------------- *)

let check_result_equal ~ctx (a : Runner.result) (b : Runner.result) =
  let tag field = Printf.sprintf "%s: %s" ctx field in
  checkb (tag "converged") a.Runner.converged b.Runner.converged;
  checkb (tag "convergence delay") true
    (a.Runner.convergence_delay = b.Runner.convergence_delay);
  checkb (tag "warmup delay") true (a.Runner.warmup_delay = b.Runner.warmup_delay);
  checki (tag "messages") a.Runner.messages b.Runner.messages;
  checki (tag "adverts") a.Runner.adverts b.Runner.adverts;
  checki (tag "withdrawals") a.Runner.withdrawals b.Runner.withdrawals;
  checki (tag "warmup messages") a.Runner.warmup_messages b.Runner.warmup_messages;
  checki (tag "eliminated") a.Runner.eliminated b.Runner.eliminated;
  checki (tag "max queue") a.Runner.max_queue b.Runner.max_queue;
  checki (tag "mrai transitions") a.Runner.mrai_transitions b.Runner.mrai_transitions;
  checki (tag "events") a.Runner.events b.Runner.events;
  checki (tag "lost messages") a.Runner.lost_messages b.Runner.lost_messages;
  checkb (tag "survivors connected") a.Runner.survivors_connected
    b.Runner.survivors_connected;
  checkb (tag "issues") true (a.Runner.issues = b.Runner.issues)

let check_attr_equal ~ctx (a : Runner.result) (b : Runner.result) =
  match (a.Runner.attribution, b.Runner.attribution) with
  | Some x, Some y ->
    let open Attribution in
    checkb (ctx ^ ": attr totals") true (x.totals = y.totals);
    checkb (ctx ^ ": attr aggregate") true (x.aggregate = y.aggregate);
    checkb (ctx ^ ": attr delay") true (x.convergence_delay = y.convergence_delay);
    checkb (ctx ^ ": attr complete") x.complete y.complete;
    checki (ctx ^ ": attr hops") (List.length x.critical_path)
      (List.length y.critical_path)
  | _ -> Alcotest.fail (ctx ^ ": attribution missing")

(* --- Golden: shards=2 and shards=4 == shards=1 ---------------------------- *)

let run_with_shards base k =
  (* Each run gets its own trace (a trace belongs to one run). *)
  let trace = Trace.create ~capacity:200_000 () in
  Runner.run
    {
      base with
      Runner.sharding = Some k;
      net = { base.Runner.net with Network.trace = Some trace };
    }

let shard_invariance ctx base () =
  let one = run_with_shards base 1 in
  List.iter
    (fun k ->
      let rk = run_with_shards base k in
      let ctx = Printf.sprintf "%s: shards=%d vs 1" ctx k in
      check_result_equal ~ctx one rk;
      check_attr_equal ~ctx one rk)
    [ 2; 4 ]

(* The chaos fault layer, sharded: replicated fault tables, hash-based
   gray loss, jitter-derived lookahead — all still shard-count invariant. *)
let faulted_scenario =
  let topo = Runner.topology_of flat_scenario in
  let failure = Runner.failure_of flat_scenario topo in
  let schedule =
    Bgp_netsim.Fault_injector.generate ~rng:(Rng.create 21) ~topo ~failure
      ~max_events:4 ~horizon:30.0 ()
  in
  { flat_scenario with Runner.faults = Some schedule }

(* --- Partition properties ------------------------------------------------- *)

let topo_gen =
  QCheck.Gen.(
    let* n = int_range 8 40 in
    let* seed = int_range 1 1000 in
    return (seed, Topology.flat (Rng.create seed) ~spec:Degree_dist.skewed_70_30 ~n))

let arb_topo =
  QCheck.make
    ~print:(fun (seed, topo) ->
      Printf.sprintf "{seed=%d; n=%d}" seed (Topology.num_routers topo))
    topo_gen

let arb_topo_shards = QCheck.pair arb_topo (QCheck.int_range 1 6)

let prop_total_assignment =
  QCheck.Test.make ~count:60 ~name:"Partition: every router in exactly one shard"
    arb_topo_shards
    (fun ((seed, topo), shards) ->
      let p = Partition.compute ~shards ~seed topo in
      let n = Topology.num_routers topo in
      Array.length p.Partition.owner = n
      && Array.for_all (fun s -> s >= 0 && s < shards) p.Partition.owner
      && Array.fold_left ( + ) 0 p.Partition.sizes = n
      (* AS granularity: an AS never splits across shards. *)
      && Array.for_all
           (fun r ->
             p.Partition.owner.(r)
             = p.Partition.as_owner.(topo.Topology.as_of_router.(r)))
           (Array.init n Fun.id))

let prop_balance_bound =
  QCheck.Test.make ~count:60 ~name:"Partition: balance bound respected"
    arb_topo_shards
    (fun ((seed, topo), shards) ->
      let p = Partition.compute ~shards ~seed topo in
      let bound = Partition.max_weight_bound ~shards topo in
      Array.for_all (fun size -> size <= bound) p.Partition.sizes)

let prop_deterministic =
  QCheck.Test.make ~count:30 ~name:"Partition: deterministic under fixed seed"
    arb_topo_shards
    (fun ((seed, topo), shards) ->
      let a = Partition.compute ~shards ~seed topo in
      let b = Partition.compute ~shards ~seed topo in
      a.Partition.owner = b.Partition.owner
      && a.Partition.cut_edges = b.Partition.cut_edges)

let prop_no_worse_than_round_robin =
  QCheck.Test.make ~count:60 ~name:"Partition: edge cut <= legal round-robin"
    arb_topo_shards
    (fun ((seed, topo), shards) ->
      let p = Partition.compute ~shards ~seed topo in
      let rr = Partition.round_robin ~shards topo in
      let bound = Partition.max_weight_bound ~shards topo in
      let rr_legal = Array.for_all (fun s -> s <= bound) rr.Partition.sizes in
      (not rr_legal) || p.Partition.cut_edges <= rr.Partition.cut_edges)

(* --- Pinned golden: the fig1-class topology ------------------------------- *)

let test_partition_golden () =
  (* Flat skewed 70-30 graph — the class every fig1 sweep point uses. *)
  let topo = Topology.flat (Rng.create 42) ~spec:Degree_dist.skewed_70_30 ~n:64 in
  let p = Partition.compute ~shards:4 ~seed:42 topo in
  checki "routers" 64 (Array.fold_left ( + ) 0 p.Partition.sizes);
  let bound = Partition.max_weight_bound ~shards:4 topo in
  checkb "bound" true (Array.for_all (fun s -> s <= bound) p.Partition.sizes);
  (* Pinned: any change to the partitioner that moves these numbers is a
     deliberate algorithm change and must update this golden. *)
  checki "cut edges" 54 p.Partition.cut_edges;
  checkb "sizes" true (p.Partition.sizes = [| 18; 18; 11; 17 |]);
  let q = Partition.compute ~shards:4 ~seed:42 topo in
  checkb "stable across calls" true (p.Partition.owner = q.Partition.owner)

let () =
  Alcotest.run "shard"
    [
      ( "shard-count invariance (shards 1/2/4)",
        [
          Alcotest.test_case "flat 70-30, 10% failure" `Quick
            (shard_invariance "flat" flat_scenario);
          Alcotest.test_case "realistic (Fig 13 class)" `Quick
            (shard_invariance "realistic" realistic_scenario);
          Alcotest.test_case "link-failure Tdown ring" `Quick
            (shard_invariance "tdown" link_failure_scenario);
          Alcotest.test_case "chaotic fault schedule" `Quick
            (shard_invariance "faulted" faulted_scenario);
        ] );
      ( "partition properties",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_total_assignment;
            prop_balance_bound;
            prop_deterministic;
            prop_no_worse_than_round_robin;
          ] );
      ( "partition golden (fig1 topology)",
        [ Alcotest.test_case "pinned 4-way split" `Quick test_partition_golden ] );
    ]
