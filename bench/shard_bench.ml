(* Single-trial shard speedup.  One power-law (Barabasi-Albert) trial is
   run at shards=1 and at shards=K, and the walls are archived as a
   bgp-bench/1 report (micro entries), with the host's recommended
   domain count recorded in the report's "jobs" field.

   Honesty note: on a single-core host the shards=K point measures
   barrier overhead, not speedup; CI gates its speedup floor on the
   recorded core count.  The shards=1-vs-shards=K bit-identity check is
   meaningful on any host.

   Run with:  dune exec bench/shard_bench.exe -- [--n N] [--shards K]
              [--seed S] [--json PATH] *)

module Rng = Bgp_engine.Rng
module Topology = Bgp_topology.Topology
module Models = Bgp_topology.Models
module Partition = Bgp_topology.Partition
module Runner = Bgp_netsim.Runner
module Network = Bgp_netsim.Network
module Config = Bgp_proto.Config

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let n = ref 500 and shards = ref 4 and seed = ref 1 and json = ref None in
  let rec parse = function
    | [] -> ()
    | "--n" :: v :: rest ->
      n := int_of_string v;
      parse rest
    | "--shards" :: v :: rest ->
      shards := int_of_string v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--json" :: v :: rest ->
      json := Some v;
      parse rest
    | arg :: _ -> failwith ("unknown argument: " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let cores = Domain.recommended_domain_count () in
  let rng = Rng.create !seed in
  let topo = Topology.of_graph rng (Models.barabasi_albert rng ~n:!n ~m:2) in
  Fmt.pr "shard speedup bench: %d-node power-law trial, shards=%d, %d core(s)@." !n
    !shards cores;
  let base =
    Runner.scenario
      ~net:(Network.config_default Config.(with_mrai (Static 1.25) default))
      ~failure:(Runner.Fraction 0.05) ~seed:!seed (Runner.Fixed topo)
  in
  let rows = ref [] in
  let point label sharding =
    let r, wall = time (fun () -> Runner.run { base with Runner.sharding }) in
    Fmt.pr "  %-22s %8.2f s  (delay %.3f s, %d msgs, %d events)@." label wall
      r.Runner.convergence_delay r.Runner.messages r.Runner.events;
    rows := { Bench_json.name = "shard.trial/" ^ label; iters = 1; wall } :: !rows;
    (r, wall)
  in
  let r_k1, w_k1 = point "shards=1" (Some 1) in
  let r_kn, w_kn = point (Printf.sprintf "shards=%d" !shards) (Some !shards) in
  (* Bit-identity across shard counts is the engine's contract; a mismatch
     here is a determinism bug, not a benchmark artifact. *)
  if
    r_k1.Runner.convergence_delay <> r_kn.Runner.convergence_delay
    || r_k1.Runner.messages <> r_kn.Runner.messages
    || r_k1.Runner.events <> r_kn.Runner.events
  then failwith "shards=1 and shards=K disagree: shard-count invariance violated";
  let p, w_part = time (fun () -> Partition.compute ~shards:!shards ~seed:!seed topo) in
  rows := { Bench_json.name = "partition.compute"; iters = 1; wall = w_part } :: !rows;
  Fmt.pr "  partition: %a (%.3f s)@." Partition.pp_stats p w_part;
  Fmt.pr "  shards=%d vs shards=1: %.2fx speedup on %d core(s)@." !shards (w_k1 /. w_kn)
    cores;
  match !json with
  | None -> ()
  | Some path ->
    Bench_json.write path ~trials:1 ~n:!n ~jobs:cores (List.rev !rows);
    Fmt.pr "wrote %s@." path
