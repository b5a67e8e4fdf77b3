(* Micro-benchmarks for the layers the benchmark suite's per-layer table
   does not measure: AS-path prepends and equality, the shard mailbox
   and barrier, and the partitioner.  Tight hand-timed loops, so a
   representation regression shows up as a per-op number.

   Run with:  dune exec bench/micro.exe -- [--quick] [--json PATH] *)

module Path = Bgp_proto.Path
module Rng = Bgp_engine.Rng
module Shard_exec = Bgp_engine.Shard_exec
module Topology = Bgp_topology.Topology
module Partition = Bgp_topology.Partition

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* --- AS paths -------------------------------------------------------------- *)

(* One prepend onto one of 64 short stems: a single node allocation that
   shares the stem's spine (paths are plain values; nothing is looked
   up). *)
let bench_path_cons ~iters () =
  let tbl = Path.create_table () in
  let rng = Rng.create 42 in
  let stems =
    Array.init 64 (fun i -> Path.of_list tbl [ 100 + i; 200 + (i mod 7); 300 ])
  in
  let sink = ref 0 in
  let wall =
    time (fun () ->
        for _ = 1 to iters do
          let stem = stems.(Rng.int rng 64) in
          let p = Path.cons tbl (400 + Rng.int rng 16) stem in
          sink := !sink + Path.length p
        done)
  in
  ignore !sink;
  { Bench_json.name = "path.cons"; iters; wall }

let bench_path_equal ~iters () =
  let tbl = Path.create_table () in
  let ps = Array.init 32 (fun i -> Path.of_list tbl [ i; i + 1; i + 2; 999 ]) in
  let rng = Rng.create 7 in
  let sink = ref 0 in
  let wall =
    time (fun () ->
        for _ = 1 to iters do
          let a = ps.(Rng.int rng 32) and b = ps.(Rng.int rng 32) in
          if Path.equal a b then incr sink
        done)
  in
  ignore !sink;
  { Bench_json.name = "path.equal"; iters; wall }

(* --- Shard layer ---------------------------------------------------------- *)

(* Mailbox enqueue + sorted drain: post [batch] messages across the 0->1
   edge, then run one (empty-scheduler) phase so the barrier machinery
   drains, sorts and delivers them — the per-window cost the sharded
   executor pays for every cross-shard message. *)
let bench_shard_mailbox ~iters () =
  let batch = 256 in
  let rounds = max 1 (iters / batch) in
  let delivered = ref 0 in
  let wall =
    time (fun () ->
        for _ = 1 to rounds do
          let t = Shard_exec.create ~shards:2 ~compare:Int.compare in
          for i = 0 to batch - 1 do
            Shard_exec.post t ~src:0 ~dst:1 i
          done;
          Shard_exec.run_phase t ~lookahead:0.025 ~cap:1.0
            ~deliver:(fun _ _ -> incr delivered)
            ()
        done)
  in
  assert (!delivered = rounds * batch);
  { Bench_json.name = "shard.mailbox_post_drain"; iters = rounds * batch; wall }

(* Raw barrier round-trip between two domains: the synchronization floor
   under every window of the sharded executor. *)
let bench_shard_barrier ~iters () =
  let b = Shard_exec.Barrier.create 2 in
  let wall =
    time (fun () ->
        let other =
          Domain.spawn (fun () ->
              for _ = 1 to iters do
                Shard_exec.Barrier.wait b
              done)
        in
        for _ = 1 to iters do
          Shard_exec.Barrier.wait b
        done;
        Domain.join other)
  in
  { Bench_json.name = "shard.barrier_round_trip"; iters; wall }

(* Partitioner wall-time at realistic topology scales (the one-off cost a
   sharded run pays before building the network).  Generation is outside
   the timed region; Barabasi-Albert keeps it cheap at 50k nodes where
   the degree-sequence generator's O(n^2) graphicality test would not —
   and its own sampling is O(1) per draw, so setup no longer dominates
   quick mode. *)
let bench_partition ~n ~iters () =
  let rng = Rng.create 1 in
  let topo = Topology.of_graph rng (Bgp_topology.Models.barabasi_albert rng ~n ~m:2) in
  let cut = ref 0 in
  let wall =
    time (fun () ->
        for seed = 1 to iters do
          let p = Partition.compute ~shards:4 ~seed topo in
          cut := !cut + p.Partition.cut_edges
        done)
  in
  ignore !cut;
  { Bench_json.name = Printf.sprintf "partition.compute/%dk" (n / 1000); iters; wall }

(* --- Driver -------------------------------------------------------------- *)

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let json_path =
    let rec find i =
      if i + 1 >= Array.length Sys.argv then None
      else if Sys.argv.(i) = "--json" then Some Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  let scale n = if quick then n / 10 else n in
  let benches =
    [
      bench_path_cons ~iters:(scale 2_000_000);
      bench_path_equal ~iters:(scale 5_000_000);
      bench_shard_mailbox ~iters:(scale 200_000);
      bench_shard_barrier ~iters:(scale 100_000);
      bench_partition ~n:1_000 ~iters:(max 1 (scale 50));
      bench_partition ~n:10_000 ~iters:(max 1 (scale 10));
    ]
    (* The 50k point's Partition.compute alone takes ~10 s (its BA
       generation is linear-time since the repeated-endpoints sampler),
       so it only runs in full mode. *)
    @ (if quick then [] else [ bench_partition ~n:50_000 ~iters:1 ])
  in
  Fmt.pr "%-24s %12s %12s %14s@." "benchmark" "iters" "ns/op" "ops/s";
  let rows =
    List.map
      (fun bench ->
        let r = bench () in
        Fmt.pr "%-24s %12d %12.1f %14.3e@." r.Bench_json.name r.iters
          (Bench_json.ns_per_op r) (Bench_json.ops_per_s r);
        r)
      benches
  in
  match json_path with
  | None -> ()
  | Some path ->
    Bench_json.write path ~trials:1 ~n:0 ~jobs:1 rows;
    Fmt.pr "@.wrote %s@." path
