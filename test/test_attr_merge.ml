(* The streaming merge (Attr_merge over bgp-attr-sidecar/1 sidecars)
   against the in-memory reference (Attribution.merge over re-parsed
   traces).

   The contract under test: (1) a sidecar is a lossless cache of its
   trial's attribution — write/read round-trips bit-exactly; (2) over a
   pinned 20-trial campaign the streamed component sums, aggregates and
   mean delay are bit-equal to the reference merge, and the histogram
   tail percentiles land within one bucket of the exact nearest-rank
   ones; (3) the fold is independent of the pool's job count; (4) when
   sidecars are present the raw trace JSONL is never read — proven by
   corrupting every trace and merging anyway — while missing sidecars
   fall back to re-parse and unreadable files are counted, never
   silently dropped. *)

module Runner = Bgp_netsim.Runner
module Network = Bgp_netsim.Network
module Trace = Bgp_netsim.Trace
module Attribution = Bgp_netsim.Attribution
module Attr_merge = Bgp_netsim.Attr_merge
module Delay_hist = Bgp_netsim.Delay_hist
module Pool = Bgp_engine.Pool
module Config = Bgp_proto.Config
module Path = Bgp_proto.Path
module Degree_dist = Bgp_topology.Degree_dist

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let exactf msg = Alcotest.check (Alcotest.float 0.0) msg

let scenario =
  Runner.scenario
    ~net:(Network.config_default Config.(with_mrai (Static 0.5) default))
    ~failure:(Runner.Fraction 0.1) ~seed:3
    (Runner.Flat { spec = Degree_dist.skewed_70_30; n = 24 })

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "bgpsim_attr_merge_%d_%d" (Unix.getpid ()) !n)
    in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    dir

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* One pinned-seed campaign shared by the equivalence tests: 20 traced
   trials, finalized with sidecars. *)
let campaign =
  lazy
    (let dir = fresh_dir () in
     let spill_base = Filename.concat dir "t.jsonl" in
     let pairs = Runner.traced ~spill_base scenario ~trials:20 in
     let results = Pool.map (fun (s, _) -> Runner.run s) pairs in
     (dir, Runner.finalize_traced pairs results))

(* The reference answer: re-parse every finalized trace, re-run the
   attribution, Attribution.merge — the path analyze --merge used before
   sidecars existed. *)
let reference dir =
  let paths = Path.create_table () in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
  in
  Attribution.merge
    (List.map
       (fun file ->
         match Trace.read_file ~paths file with
         | Ok (Some meta, events) ->
           {
             Attribution.trial_seed = meta.Trace.seed;
             attr = Attribution.analyze ~t_fail:meta.Trace.t_fail events;
           }
         | Ok (None, _) -> Alcotest.failf "%s: no meta line" file
         | Error m -> Alcotest.fail m)
       files)

let streamed ?jobs ?reparse dir =
  let acc = Attr_merge.create () in
  Attr_merge.load ?jobs acc (Attr_merge.plan ?reparse dir);
  acc

let check_components msg (a : Attribution.components) (b : Attribution.components) =
  exactf (msg ^ ".queueing") a.Attribution.queueing b.Attribution.queueing;
  exactf (msg ^ ".processing") a.Attribution.processing b.Attribution.processing;
  exactf (msg ^ ".mrai_hold") a.Attribution.mrai_hold b.Attribution.mrai_hold;
  exactf (msg ^ ".propagation") a.Attribution.propagation b.Attribution.propagation

(* --- sidecar round-trip --------------------------------------------------- *)

let test_sidecar_roundtrip () =
  let trace = Trace.create ~capacity:500_000 () in
  let s =
    { scenario with Runner.net = { scenario.Runner.net with Network.trace = Some trace } }
  in
  let r = Runner.run s in
  let attr = Option.get r.Runner.attribution in
  let sc = Attribution.sidecar_of ~violations:[ "queue_drain" ] ~seed:s.Runner.seed attr in
  Trace.close trace;
  let sc' =
    match Attribution.sidecar_of_json (Attribution.sidecar_to_json sc) with
    | Ok sc' -> sc'
    | Error m -> Alcotest.fail m
  in
  checki "seed" sc.Attribution.sc_seed sc'.Attribution.sc_seed;
  exactf "t_fail" sc.Attribution.sc_t_fail sc'.Attribution.sc_t_fail;
  exactf "delay" sc.Attribution.sc_delay sc'.Attribution.sc_delay;
  checkb "complete" sc.Attribution.sc_complete sc'.Attribution.sc_complete;
  checki "events" sc.Attribution.sc_events sc'.Attribution.sc_events;
  check_components "totals" sc.Attribution.sc_totals sc'.Attribution.sc_totals;
  check_components "aggregate" sc.Attribution.sc_aggregate sc'.Attribution.sc_aggregate;
  checki "by_router size"
    (List.length sc.Attribution.sc_by_router)
    (List.length sc'.Attribution.sc_by_router);
  List.iter2
    (fun (r, c) (r', c') ->
      checki "router" r r';
      check_components (Printf.sprintf "router %d" r) c c')
    sc.Attribution.sc_by_router sc'.Attribution.sc_by_router;
  checki "dests" (List.length sc.Attribution.sc_dests) (List.length sc'.Attribution.sc_dests);
  List.iter2
    (fun (d : Attribution.sidecar_dest) (d' : Attribution.sidecar_dest) ->
      checki "dest" d.Attribution.sd_dest d'.Attribution.sd_dest;
      exactf "tail" d.Attribution.sd_tail d'.Attribution.sd_tail;
      checkb "dest complete" d.Attribution.sd_complete d'.Attribution.sd_complete;
      check_components "dest parts" d.Attribution.sd_parts d'.Attribution.sd_parts)
    sc.Attribution.sc_dests sc'.Attribution.sc_dests;
  Alcotest.(check (list string))
    "violations" sc.Attribution.sc_violations sc'.Attribution.sc_violations

let test_sidecar_path () =
  checks "path" "/x/t.seed7.attr.json" (Attribution.sidecar_path "/x/t.seed7.jsonl");
  checkb "is sidecar" true (Attribution.is_sidecar_path "t.seed7.attr.json");
  checkb "trace is not sidecar" false (Attribution.is_sidecar_path "t.seed7.jsonl")

(* --- histogram ------------------------------------------------------------ *)

let test_hist_buckets () =
  checki "zero underflows" 0 (Delay_hist.bucket_of 0.0);
  checki "below lo underflows" 0 (Delay_hist.bucket_of 1e-9);
  checkb "overflow is last" true (Delay_hist.bucket_of 1e9 = Delay_hist.n_buckets - 1);
  (* Monotone: a bigger sample never lands in an earlier bucket. *)
  let prev = ref (-1) in
  for i = 0 to 200 do
    let v = 1e-6 *. (1.12 ** float_of_int i) in
    let b = Delay_hist.bucket_of v in
    checkb "monotone" true (b >= !prev);
    prev := b
  done;
  (* The representative value of a bucket maps back into that bucket. *)
  for i = 1 to Delay_hist.n_buckets - 2 do
    checki "midpoint stays" i (Delay_hist.bucket_of (Delay_hist.midpoint i))
  done

let test_hist_percentile_error () =
  let t = Delay_hist.create () in
  let samples = List.init 1000 (fun i -> 0.001 *. float_of_int (i + 1)) in
  List.iter (Delay_hist.add t) samples;
  checki "count" 1000 (Delay_hist.count t);
  (* Nearest-rank exact percentiles on the sorted list vs histogram. *)
  List.iter
    (fun q ->
      let exact = List.nth samples (int_of_float (ceil (q *. 1000.)) - 1) in
      let approx = Delay_hist.percentile t q in
      let rel = Float.abs (approx -. exact) /. exact in
      checkb
        (Printf.sprintf "p%.0f rel err %.4f within bound" (q *. 100.) rel)
        true
        (rel <= 0.0182);
      checkb
        (Printf.sprintf "p%.0f within one bucket" (q *. 100.))
        true
        (abs (Delay_hist.bucket_of approx - Delay_hist.bucket_of exact) <= 1))
    [ 0.5; 0.95; 0.99 ]

let test_hist_merge_json () =
  let a = Delay_hist.create () and b = Delay_hist.create () in
  List.iter (Delay_hist.add a) [ 0.1; 0.2; 3.0 ];
  List.iter (Delay_hist.add b) [ 0.15; 40.0 ];
  Delay_hist.merge_into ~into:a b;
  checki "merged count" 5 (Delay_hist.count a);
  let module J = Bgp_netsim.Json_lite in
  match Delay_hist.of_json (J.parse (J.to_string (Delay_hist.to_json a))) with
  | exception Bgp_netsim.Json_lite.Bad m -> Alcotest.fail m
  | a' ->
    checki "roundtrip count" 5 (Delay_hist.count a');
    Alcotest.(check (array int)) "roundtrip buckets" (Delay_hist.counts a)
      (Delay_hist.counts a')

(* --- equivalence over the pinned campaign --------------------------------- *)

let test_equivalence () =
  let dir, sidecars = Lazy.force campaign in
  checki "20 sidecars written" 20 (List.length sidecars);
  let ref_m = reference dir in
  let acc = streamed ~jobs:1 dir in
  let r = Attr_merge.report acc in
  checki "trials" ref_m.Attribution.n_trials r.Attr_merge.r_trials;
  checki "all from sidecars" 20 r.Attr_merge.r_from_sidecars;
  checki "none reparsed" 0 r.Attr_merge.r_reparsed;
  checki "none skipped" 0 r.Attr_merge.r_skipped;
  (* Bit-equal: same float additions in the same (stem-sorted) order,
     through a %.17g round-trip. *)
  exactf "mean delay" ref_m.Attribution.mean_delay r.Attr_merge.r_mean_delay;
  check_components "totals" ref_m.Attribution.merged_totals r.Attr_merge.r_totals;
  check_components "aggregate" ref_m.Attribution.merged_aggregate r.Attr_merge.r_aggregate;
  checki "pooled dests" ref_m.Attribution.pooled_tails.Attribution.n_dests
    r.Attr_merge.r_dests;
  (* Histogram percentiles within one bucket of the exact nearest-rank. *)
  List.iter
    (fun (name, exact, approx) ->
      checkb
        (Printf.sprintf "%s within one bucket (exact %.4f, hist %.4f)" name exact approx)
        true
        (abs (Delay_hist.bucket_of approx - Delay_hist.bucket_of exact) <= 1))
    [
      ("p50", ref_m.Attribution.pooled_tails.Attribution.p50, r.Attr_merge.r_p50);
      ("p95", ref_m.Attribution.pooled_tails.Attribution.p95, r.Attr_merge.r_p95);
      ("p99", ref_m.Attribution.pooled_tails.Attribution.p99, r.Attr_merge.r_p99);
    ];
  (* Stragglers: same (seed, dest, tail) board, slowest first. *)
  let ref_worst =
    List.filteri (fun i _ -> i < 5) ref_m.Attribution.worst
    |> List.map (fun (seed, (d : Attribution.dest_attr)) ->
           (seed, d.Attribution.dest, d.Attribution.tail))
  in
  let stream_worst =
    List.filteri (fun i _ -> i < 5) r.Attr_merge.r_stragglers
    |> List.map (fun (s : Attr_merge.straggler) ->
           (s.Attr_merge.seed, s.Attr_merge.dest, s.Attr_merge.tail))
  in
  List.iter2
    (fun (s, d, t) (s', d', t') ->
      checki "straggler seed" s s';
      checki "straggler dest" d d';
      exactf "straggler tail" t t')
    ref_worst stream_worst

let test_jobs_invariance () =
  let dir, _ = Lazy.force campaign in
  let j1 = Attr_merge.to_json (streamed ~jobs:1 dir) in
  let j4 = Attr_merge.to_json (streamed ~jobs:4 dir) in
  checks "jobs=4 == jobs=1" j1 j4

let test_reparse_equivalence () =
  (* --reparse forces the trace path; component sums must still be
     bit-equal (the sidecar is a cache, not an approximation). *)
  let dir, _ = Lazy.force campaign in
  let side = Attr_merge.report (streamed dir) in
  let re = Attr_merge.report (streamed ~reparse:true dir) in
  checki "all reparsed" 20 re.Attr_merge.r_reparsed;
  check_components "totals" side.Attr_merge.r_totals re.Attr_merge.r_totals;
  exactf "mean" side.Attr_merge.r_mean_delay re.Attr_merge.r_mean_delay;
  exactf "p99" side.Attr_merge.r_p99 re.Attr_merge.r_p99

(* --- sidecars bypass the trace JSONL entirely ----------------------------- *)

let copy_campaign () =
  let src, _ = Lazy.force campaign in
  let dst = fresh_dir () in
  Array.iter
    (fun f ->
      let contents =
        In_channel.with_open_bin (Filename.concat src f) In_channel.input_all
      in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          Out_channel.output_string oc contents))
    (Sys.readdir src);
  dst

let test_no_trace_reread () =
  let dir = copy_campaign () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let reference = Attr_merge.to_json (streamed dir) in
  (* Destroy every trace file.  If the sidecar path touched the JSONL at
     all, the merge would now skip or fail; it must not even notice. *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".jsonl" then
        Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
            Out_channel.output_string oc "{TRUNCATED MID-EVENT"))
    (Sys.readdir dir);
  let acc = streamed dir in
  let r = Attr_merge.report acc in
  checki "trials" 20 r.Attr_merge.r_trials;
  checki "skipped" 0 r.Attr_merge.r_skipped;
  checks "identical to pre-corruption merge" reference (Attr_merge.to_json acc)

let test_fallback_and_skip () =
  let dir = copy_campaign () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sidecars =
    Sys.readdir dir |> Array.to_list
    |> List.filter Attribution.is_sidecar_path
    |> List.sort String.compare
  in
  (* Trial 0: sidecar deleted -> falls back to re-parsing its trace.
     Trial 1: sidecar corrupted and trace deleted -> skipped, reported. *)
  let s0 = List.nth sidecars 0 and s1 = List.nth sidecars 1 in
  Sys.remove (Filename.concat dir s0);
  Out_channel.with_open_bin (Filename.concat dir s1) (fun oc ->
      Out_channel.output_string oc "not json");
  let stem f = Filename.chop_suffix f ".attr.json" in
  Sys.remove (Filename.concat dir (stem s1 ^ ".jsonl"));
  let acc = streamed dir in
  let r = Attr_merge.report acc in
  checki "trials" 19 r.Attr_merge.r_trials;
  checki "from sidecars" 18 r.Attr_merge.r_from_sidecars;
  checki "reparsed" 1 r.Attr_merge.r_reparsed;
  checki "skipped" 1 r.Attr_merge.r_skipped;
  (match r.Attr_merge.r_first_error with
  | Some e -> checkb (Printf.sprintf "first error names the file: %s" e) true (contains e s1)
  | None -> Alcotest.fail "expected a first_error");
  (* The skip surfaces in the JSON artifact too. *)
  checkb "json reports skip" true (contains (Attr_merge.to_json acc) "\"skipped\":1")

(* A sidecar whose file name holds a tab surfaces that name in
   first_error; the merged document must still be strict JSON (the tab
   escaped, not written raw) and carry the name back intact. *)
let test_control_char_in_first_error () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let name = "bad\tname.attr.json" in
  Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
      Out_channel.output_string oc "not json");
  let acc = streamed dir in
  let doc = Attr_merge.to_json acc in
  checkb "no raw control byte in the document" true
    (String.for_all (fun c -> Char.code c >= 0x20) doc);
  checkb "the tab is escaped" true (contains doc "bad\\u0009name");
  let module J = Bgp_engine.Json_lite in
  let first_error = J.field (J.obj (J.field (J.obj (J.parse doc)) "sources")) "first_error" in
  checkb "first_error reads back with its tab" true (contains (J.str first_error) name)

(* One flamegraph writer: over a one-trial campaign the merged flamegraph
   is byte-identical to the trial's own aggregate flamegraph. *)
let test_flame_one_trial () =
  let trace = Trace.create ~capacity:500_000 () in
  let s =
    { scenario with Runner.net = { scenario.Runner.net with Network.trace = Some trace } }
  in
  let attr = Option.get (Runner.run s).Runner.attribution in
  let acc = Attr_merge.create () in
  Attr_merge.add_sidecar acc (Attribution.sidecar_of ~seed:s.Runner.seed attr);
  let own = Attribution.to_flamegraph ~mode:Attribution.Flame_aggregate attr in
  checkb "flamegraph is non-empty" true (own <> "");
  checks "merged == single-trial flamegraph" own (Attr_merge.to_flamegraph acc)

let test_plan_prefers_sidecars () =
  let dir, _ = Lazy.force campaign in
  let items = Attr_merge.plan dir in
  checki "one item per stem" 20 (List.length items);
  List.iter
    (function
      | Attr_merge.Use_sidecar p ->
        checkb "sidecar path" true (Attribution.is_sidecar_path p)
      | Attr_merge.Use_trace p -> Alcotest.failf "unexpected trace item %s" p)
    items;
  let forced = Attr_merge.plan ~reparse:true dir in
  List.iter
    (function
      | Attr_merge.Use_trace p ->
        checkb "trace path" true (Filename.check_suffix p ".jsonl")
      | Attr_merge.Use_sidecar p -> Alcotest.failf "unexpected sidecar item %s" p)
    forced

let () =
  Alcotest.run "attr_merge"
    [
      ( "sidecar",
        [
          Alcotest.test_case "roundtrip is bit-exact" `Quick test_sidecar_roundtrip;
          Alcotest.test_case "path derivation" `Quick test_sidecar_path;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket layout" `Quick test_hist_buckets;
          Alcotest.test_case "percentile error bound" `Quick test_hist_percentile_error;
          Alcotest.test_case "merge and json" `Quick test_hist_merge_json;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "streamed == reference merge" `Slow test_equivalence;
          Alcotest.test_case "independent of jobs" `Slow test_jobs_invariance;
          Alcotest.test_case "reparse path agrees" `Slow test_reparse_equivalence;
        ] );
      ( "sources",
        [
          Alcotest.test_case "sidecars bypass trace JSONL" `Slow test_no_trace_reread;
          Alcotest.test_case "fallback and skip accounting" `Slow test_fallback_and_skip;
          Alcotest.test_case "plan prefers sidecars" `Slow test_plan_prefers_sidecars;
          Alcotest.test_case "control byte in first_error" `Quick
            test_control_char_in_first_error;
        ] );
      ( "flamegraph",
        [ Alcotest.test_case "one trial: merged == own" `Quick test_flame_one_trial ] );
    ]
