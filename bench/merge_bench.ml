(* Merge-path micro-benchmark: sidecar fold vs trace re-parse.

   Generates a traced campaign (every trial finalized with its
   bgp-attr-sidecar/1 sidecar next to the trace JSONL), then times the
   two ways `bgpsim analyze --merge` can consume it:

   - [merge.sidecar]  — the O(trials) path: fold each trial's sidecar;
   - [merge.reparse]  — the O(events) baseline: re-read every trace
     JSONL and re-run the full attribution per trial.

   Both merges run single-threaded so the ratio is per-trial work, not
   pool scheduling.  The speedup is the whole point of the sidecars;
   BENCH_pr7.json archives it.

   Run with:  dune exec bench/merge_bench.exe -- [--quick] [--json PATH] *)

module Pool = Bgp_engine.Pool
module Runner = Bgp_netsim.Runner
module Merge = Bgp_netsim.Attr_merge

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let fresh_dir () =
  let base = Filename.temp_file "bgpsim_merge_bench" "" in
  Sys.remove base;
  Unix.mkdir base 0o755;
  base

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let run_merge items =
  let acc = Merge.create () in
  Merge.load ~jobs:1 acc items;
  acc

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
  let trials = if quick then 40 else 200 in
  let nodes = 32 in
  let scenario =
    Runner.scenario ~failure:(Runner.Fraction 0.10) ~seed:1
      (Runner.Flat { spec = Bgp_topology.Degree_dist.skewed_70_30; n = nodes })
  in
  let scenario =
    let net = scenario.Runner.net in
    {
      scenario with
      Runner.net =
        {
          net with
          Bgp_netsim.Network.bgp =
            { net.Bgp_netsim.Network.bgp with Bgp_proto.Config.mrai_scheme = Static 0.5 };
        };
    }
  in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let gen_wall, sidecars =
    time (fun () ->
        let spill_base = Filename.concat dir "t.jsonl" in
        let pairs = Runner.traced ~spill_base scenario ~trials in
        Runner.finalize_traced pairs (Pool.map (fun (s, _) -> Runner.run s) pairs))
  in
  Fmt.pr "campaign: %d trials (%d routers) generated in %.1fs, %d sidecars@." trials
    nodes gen_wall (List.length sidecars);
  let sidecar_items = Merge.plan dir in
  let reparse_items = Merge.plan ~reparse:true dir in
  let n_traces =
    List.length (List.filter (function Merge.Use_trace _ -> true | _ -> false) reparse_items)
  in
  if List.length sidecar_items <> trials || n_traces <> trials then begin
    Fmt.epr "error: expected %d items from both plans (got %d sidecar, %d reparse)@."
      trials (List.length sidecar_items) n_traces;
    exit 1
  end;
  (* Warm the page cache so the first timed pass is not charged for cold
     reads the second would then get for free. *)
  ignore (run_merge sidecar_items);
  let wall_reparse, acc_reparse = time (fun () -> run_merge reparse_items) in
  let wall_sidecar, acc_sidecar = time (fun () -> run_merge sidecar_items) in
  if Merge.trials acc_sidecar <> trials || Merge.trials acc_reparse <> trials then begin
    Fmt.epr "error: merges folded %d / %d trials, expected %d@."
      (Merge.trials acc_sidecar) (Merge.trials acc_reparse) trials;
    exit 1
  end;
  (* The two paths must agree — the sidecar is a cache, not an estimate. *)
  let r_s = Merge.report acc_sidecar and r_r = Merge.report acc_reparse in
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
  if
    not
      (close r_s.Merge.r_mean_delay r_r.Merge.r_mean_delay
      && close r_s.Merge.r_totals.Bgp_netsim.Attribution.queueing
           r_r.Merge.r_totals.Bgp_netsim.Attribution.queueing)
  then begin
    Fmt.epr "error: sidecar merge disagrees with re-parse merge@.";
    exit 1
  end;
  let speedup = wall_reparse /. wall_sidecar in
  Fmt.pr "%-16s %10s %14s %14s@." "merge path" "trials" "wall (s)" "trials/s";
  Fmt.pr "%-16s %10d %14.4f %14.0f@." "reparse" trials wall_reparse
    (float_of_int trials /. wall_reparse);
  Fmt.pr "%-16s %10d %14.4f %14.0f@." "sidecar" trials wall_sidecar
    (float_of_int trials /. wall_sidecar);
  Fmt.pr "speedup: %.1fx@." speedup;
  (match json_path with
  | None -> ()
  | Some path ->
    Bench_json.write path ~trials ~n:nodes ~jobs:1
      [
        { Bench_json.name = "merge.reparse"; iters = trials; wall = wall_reparse };
        { Bench_json.name = "merge.sidecar"; iters = trials; wall = wall_sidecar };
      ];
    Fmt.pr "wrote %s@." path);
  if speedup < 5.0 then begin
    Fmt.epr "error: sidecar merge speedup %.1fx is below the 5x floor@." speedup;
    exit 1
  end
