(* Tests for the experiment layer: shape predicates, figure containers,
   the memoizing sweep cache, and verdict plumbing. *)

module Figure = Bgp_experiments.Figure
module Shape = Bgp_experiments.Shape
module Sweep = Bgp_experiments.Sweep
module Figures = Bgp_experiments.Figures
module Scenarios = Bgp_experiments.Scenarios
module Verdicts = Bgp_experiments.Verdicts
module Runner = Bgp_netsim.Runner
module Network = Bgp_netsim.Network
module Degree_dist = Bgp_topology.Degree_dist

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* --- Shape ------------------------------------------------------------------ *)

let v_curve = [ (0.25, 100.0); (0.5, 40.0); (1.25, 20.0); (2.25, 45.0); (4.0, 90.0) ]
let rising = [ (1.0, 10.0); (2.0, 20.0); (3.0, 40.0) ]
let flat = [ (1.0, 10.0); (2.0, 10.0); (3.0, 10.0) ]

let test_argmin () =
  checkf "bottom of the V" 1.25 (Shape.argmin v_curve);
  checkf "monotone argmin" 1.0 (Shape.argmin rising)

let test_value_at () =
  checkf "lookup" 40.0 (Shape.value_at v_curve 0.5);
  checkb "missing x raises" true
    (try
       ignore (Shape.value_at v_curve 9.9);
       false
     with Not_found -> true)

let test_v_shape () =
  checkb "V detected" true (Shape.is_v_shaped v_curve);
  checkb "rising is not a V" false (Shape.is_v_shaped rising);
  checkb "flat is not a V" false (Shape.is_v_shaped flat);
  checkb "too short is not a V" false (Shape.is_v_shaped [ (1.0, 1.0); (2.0, 5.0) ])

let test_increasing () =
  checkb "rising" true (Shape.increasing_in_x rising);
  checkb "flat is not increasing" false (Shape.increasing_in_x flat)

let test_ratio_and_dominates () =
  let a = [ (1.0, 10.0); (2.0, 30.0) ] in
  let b = [ (1.0, 5.0); (2.0, 10.0) ] in
  checkf "ratio at last common x" 3.0 (Shape.ratio_at_last a b);
  checkb "a dominates b" true (Shape.dominates a b);
  checkb "b does not dominate a" false (Shape.dominates b a);
  checkb "a dominates b by 2x" true (Shape.dominates ~at_least:2.0 a b)

(* --- Figure ------------------------------------------------------------------ *)

let fig =
  {
    Figure.id = "figX";
    title = "test";
    xlabel = "x";
    ylabel = "y";
    series =
      [
        { Figure.label = "a"; points = [ { Figure.x = 1.0; y = 2.0; sd = 0.1 } ] };
        { Figure.label = "b"; points = [ { Figure.x = 1.0; y = 3.0; sd = 0.0 } ] };
      ];
    paper_expectation = "n/a";
  }

(* The RFC 4180 fields of one CSV line. *)
let csv_fields line =
  let n = String.length line in
  let buf = Buffer.create 16 and fields = ref [] in
  let push () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let rec field i = if i < n && line.[i] = '"' then quoted (i + 1) else plain i
  and plain i =
    if i = n then push ()
    else if line.[i] = ',' then (push (); field (i + 1))
    else (Buffer.add_char buf line.[i]; plain (i + 1))
  and quoted i =
    if i >= n then Alcotest.failf "unterminated quote in %S" line
    else if line.[i] <> '"' then (Buffer.add_char buf line.[i]; quoted (i + 1))
    else if i + 1 < n && line.[i + 1] = '"' then (Buffer.add_char buf '"'; quoted (i + 2))
    else if i + 1 = n then push ()
    else if line.[i + 1] = ',' then (push (); field (i + 2))
    else Alcotest.failf "text after a closing quote in %S" line
  in
  field 0;
  List.rev !fields

let test_figure_csv () =
  let label = "low 0.5, high \"2.25\"" in
  let fig =
    {
      fig with
      Figure.series =
        fig.Figure.series
        @ [ { Figure.label; points = [ { Figure.x = 1.0; y = 4.0; sd = 0.0 } ] } ];
    }
  in
  let csv = Figure.to_csv fig in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' csv) in
  checkb "header" true (List.hd lines = "figure,series,x,y,sd");
  checkb "row for a" true (List.mem "figX,a,1,2,0.1" lines);
  checkb "row for b" true (List.mem "figX,b,1,3,0" lines);
  List.iter
    (fun l -> checki (Printf.sprintf "five fields in %S" l) 5 (List.length (csv_fields l)))
    lines;
  Alcotest.(check (list string))
    "a label with a comma and quotes round-trips"
    [ "figX"; label; "1"; "4"; "0" ]
    (csv_fields (List.nth lines 3))

let test_figure_series_points () =
  Alcotest.check
    Alcotest.(list (pair (float 1e-9) (float 1e-9)))
    "points" [ (1.0, 2.0) ] (Figure.series_points fig "a");
  checkb "unknown raises" true
    (try
       ignore (Figure.series_points fig "zzz");
       false
     with Not_found -> true)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_figure_pp_renders () =
  let s = Fmt.str "%a" Figure.pp fig in
  checkb "mentions id" true (contains s "figX");
  checkb "mentions series" true (contains s "a" && contains s "b")

(* --- Sweep cache ---------------------------------------------------------------- *)

let tiny_scenario seed =
  Runner.scenario
    ~net:(Network.config_default Bgp_proto.Config.default)
    ~failure:(Runner.Fraction 0.1) ~seed
    (Runner.Flat { spec = Degree_dist.skewed_70_30; n = 15 })

let test_sweep_cache_hits () =
  Sweep.clear_cache ();
  let r1 = Sweep.results (tiny_scenario 1) ~trials:2 in
  let size_after_first = Sweep.cache_size () in
  let r2 = Sweep.results (tiny_scenario 1) ~trials:2 in
  checkb "same object from cache" true (r1 == r2);
  checki "no new entry" size_after_first (Sweep.cache_size ());
  (* Different trials or seed = different key. *)
  ignore (Sweep.results (tiny_scenario 1) ~trials:1);
  ignore (Sweep.results (tiny_scenario 2) ~trials:2);
  checki "two new entries" (size_after_first + 2) (Sweep.cache_size ())

let test_sweep_trials_distinct_seeds () =
  Sweep.clear_cache ();
  let results = Sweep.results (tiny_scenario 7) ~trials:3 in
  checki "three runs" 3 (List.length results);
  (* Distinct seeds should give at least two distinct message counts. *)
  let msgs = List.map (fun r -> r.Runner.messages) results in
  checkb "not all identical" true (List.length (List.sort_uniq Int.compare msgs) > 1)

let test_sweep_clear_cache () =
  Sweep.clear_cache ();
  let r1 = Sweep.results (tiny_scenario 1) ~trials:2 in
  checkb "cache populated" true (Sweep.cache_size () > 0);
  Sweep.clear_cache ();
  checki "cache emptied" 0 (Sweep.cache_size ());
  (* Recomputation builds a fresh list with identical (deterministic)
     content. *)
  let r2 = Sweep.results (tiny_scenario 1) ~trials:2 in
  checkb "fresh list after clear" true (not (r1 == r2));
  checkb "identical content" true (r1 = r2);
  checki "one entry again" 1 (Sweep.cache_size ())

let test_sweep_prefetch () =
  Sweep.clear_cache ();
  let a = tiny_scenario 1 and b = tiny_scenario 5 in
  Sweep.prefetch [ (a, 2); (b, 2); (a, 2) ];
  checki "two entries (duplicate spec collapsed)" 2 (Sweep.cache_size ());
  let ra = Sweep.results a ~trials:2 in
  checki "prefetch filled the cache" 2 (Sweep.cache_size ());
  (* The prefetch-computed runs are what a direct call produces. *)
  Sweep.clear_cache ();
  checkb "same as direct computation" true (ra = Sweep.results a ~trials:2)

let test_sweep_mean_sd () =
  Sweep.clear_cache ();
  let results = Sweep.results (tiny_scenario 3) ~trials:3 in
  let metric r = float_of_int r.Runner.messages in
  let values = List.map metric results in
  let n = float_of_int (List.length values) in
  let mean = List.fold_left ( +. ) 0.0 values /. n in
  let var =
    List.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 values /. (n -. 1.0)
  in
  checkf "mean over trials" mean (Sweep.mean_of metric results);
  checkf "sample sd over trials" (sqrt var) (Sweep.sd_of metric results);
  (* Degenerate case: a single trial has zero spread. *)
  Sweep.clear_cache ();
  let one = Sweep.results (tiny_scenario 3) ~trials:1 in
  checkf "sd of one trial" 0.0 (Sweep.sd_of metric one)

let test_sweep_point_stats () =
  Sweep.clear_cache ();
  let p =
    Sweep.point (tiny_scenario 1) ~trials:3 ~x:42.0
      ~metric:(fun r -> float_of_int r.Runner.messages)
  in
  checkf "x carried through" 42.0 p.Figure.x;
  checkb "positive mean" true (p.Figure.y > 0.0)

(* --- Figures registry -------------------------------------------------------------- *)

let test_registry_complete () =
  checki "13 figures" 13 (List.length Figures.all);
  List.iteri
    (fun i (id, _) -> Alcotest.check Alcotest.string "ordered ids"
        (Printf.sprintf "fig%d" (i + 1)) id)
    Figures.all

let test_by_id_normalization () =
  checkb "fig7" true (Figures.by_id "fig7" <> None);
  checkb "7" true (Figures.by_id "7" <> None);
  checkb "Fig07" true (Figures.by_id "Fig07" <> None);
  checkb "unknown" true (Figures.by_id "fig99" = None)

(* One real (tiny) figure end-to-end: fig12 on a midget grid. *)
let midget_opts =
  {
    Scenarios.n = 20;
    trials = 1;
    seed = 1;
    sizes = [ 0.05; 0.15 ];
    mrais = [ 0.5; 2.25 ];
    realistic_ases = 10;
  }

let test_fig12_end_to_end () =
  Sweep.clear_cache ();
  let f = Figures.fig12 midget_opts in
  checki "two series" 2 (List.length f.Figure.series);
  List.iter
    (fun s ->
      checki (s.Figure.label ^ " has all points") 2 (List.length s.Figure.points);
      List.iter (fun p -> checkb "finite" true (Float.is_finite p.Figure.y)) s.Figure.points)
    f.Figure.series;
  (* Verdict machinery runs (we don't require PASS at this midget scale). *)
  checkb "verdicts computed" true (List.length (Verdicts.check f) > 0)

let test_fig13_end_to_end () =
  Sweep.clear_cache ();
  let f = Figures.fig13 midget_opts in
  checki "five series" 5 (List.length f.Figure.series);
  List.iter
    (fun s -> checki (s.Figure.label ^ " points") 2 (List.length s.Figure.points))
    f.Figure.series

let test_verdicts_unknown_figure () =
  checki "no claims for unknown ids" 0 (List.length (Verdicts.check fig))

let () =
  Alcotest.run "experiments"
    [
      ( "shape",
        [
          Alcotest.test_case "argmin" `Quick test_argmin;
          Alcotest.test_case "value_at" `Quick test_value_at;
          Alcotest.test_case "v-shape" `Quick test_v_shape;
          Alcotest.test_case "increasing" `Quick test_increasing;
          Alcotest.test_case "ratio and dominates" `Quick test_ratio_and_dominates;
        ] );
      ( "figure",
        [
          Alcotest.test_case "csv" `Quick test_figure_csv;
          Alcotest.test_case "series points" `Quick test_figure_series_points;
          Alcotest.test_case "pp renders" `Quick test_figure_pp_renders;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "cache hits" `Quick test_sweep_cache_hits;
          Alcotest.test_case "trials use distinct seeds" `Quick
            test_sweep_trials_distinct_seeds;
          Alcotest.test_case "clear empties and recompute matches" `Quick
            test_sweep_clear_cache;
          Alcotest.test_case "prefetch fills the cache" `Quick test_sweep_prefetch;
          Alcotest.test_case "mean/sd over multi-trial runs" `Quick test_sweep_mean_sd;
          Alcotest.test_case "point stats" `Quick test_sweep_point_stats;
        ] );
      ( "figures",
        [
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
          Alcotest.test_case "id normalization" `Quick test_by_id_normalization;
          Alcotest.test_case "fig12 end-to-end (midget)" `Quick test_fig12_end_to_end;
          Alcotest.test_case "fig13 end-to-end (midget)" `Quick test_fig13_end_to_end;
          Alcotest.test_case "verdicts for unknown" `Quick test_verdicts_unknown_figure;
        ] );
    ]
