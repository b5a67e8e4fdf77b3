module Churn = Bgp_netsim.Churn
module Delay_hist = Bgp_netsim.Delay_hist
module J = Bgp_netsim.Json_lite

type trial = { seed : int; converged : bool; stats : Churn.stats }

type t = {
  workload : string;
  window : float;
  prefixes : int;
  universe : int;
  sampled_fraction : float;
  jobs : int;
  shards : int;
  mutable trials_rev : trial list;
  pooled : Delay_hist.t;  (* bucket-wise merge of every trial's tails *)
}

let create ~workload ~window ~prefixes ~universe ~sampled_fraction ~jobs ~shards =
  {
    workload;
    window;
    prefixes;
    universe;
    sampled_fraction;
    jobs;
    shards;
    trials_rev = [];
    pooled = Delay_hist.create ();
  }

let add t ~seed ~converged stats =
  t.trials_rev <- { seed; converged; stats } :: t.trials_rev;
  Delay_hist.merge_into ~into:t.pooled stats.Churn.tails

type summary = {
  workload : string;
  trials : int;
  prefixes : int;
  universe : int;
  sampled_fraction : float;
  ops : int;
  sustained_rate : float;
  peak_window_rate : float;
  queue_high_water : int;
  disturbed : int;
  unconverged : int;
  converged_trials : int;
  p50 : float;
  p95 : float;
  p99 : float;
}

let summary t =
  let trials = List.rev t.trials_rev in
  let n = List.length trials in
  let fold f init = List.fold_left (fun acc tr -> f acc tr.stats) init trials in
  let sustained = fold (fun a s -> a +. s.Churn.sustained_rate) 0.0 in
  {
    workload = t.workload;
    trials = n;
    prefixes = t.prefixes;
    universe = t.universe;
    sampled_fraction = t.sampled_fraction;
    ops = fold (fun a s -> a + s.Churn.ops) 0;
    sustained_rate = (if n > 0 then sustained /. float_of_int n else 0.0);
    peak_window_rate = fold (fun a s -> Float.max a s.Churn.peak_window_rate) 0.0;
    queue_high_water = fold (fun a s -> max a s.Churn.queue_high_water) 0;
    disturbed = fold (fun a s -> a + s.Churn.disturbed) 0;
    unconverged = fold (fun a s -> a + s.Churn.unconverged) 0;
    converged_trials =
      List.fold_left (fun a tr -> if tr.converged then a + 1 else a) 0 trials;
    p50 = Delay_hist.percentile t.pooled 0.5;
    p95 = Delay_hist.percentile t.pooled 0.95;
    p99 = Delay_hist.percentile t.pooled 0.99;
  }

let trial_json tr =
  let s = tr.stats in
  J.Obj
    [
      ("seed", J.of_int tr.seed);
      ("converged", J.Bool tr.converged);
      ("ops", J.of_int s.Churn.ops);
      ("span", J.of_float s.Churn.span);
      ("updates_processed", J.of_int s.Churn.updates_processed);
      ("sustained_rate", J.of_float s.Churn.sustained_rate);
      ("peak_window_rate", J.of_float s.Churn.peak_window_rate);
      ("windows", J.of_int s.Churn.windows);
      ("queue_high_water", J.of_int s.Churn.queue_high_water);
      ("disturbed", J.of_int s.Churn.disturbed);
      ("unconverged", J.of_int s.Churn.unconverged);
      ("tail_p50", J.of_float s.Churn.p50);
      ("tail_p95", J.of_float s.Churn.p95);
      ("tail_p99", J.of_float s.Churn.p99);
      ("hist", Delay_hist.to_json s.Churn.tails);
    ]

let to_json t =
  let s = summary t in
  J.to_string
    (J.Obj
       [
         ("schema", J.Str "bgp-churn/1");
         ("workload", J.Str s.workload);
         ("window", J.of_float t.window);
         ("jobs", J.of_int t.jobs);
         ("shards", J.of_int t.shards);
         ("trials", J.of_int s.trials);
         ("prefixes", J.of_int s.prefixes);
         ("universe", J.of_int s.universe);
         ("sampled_fraction", J.of_float s.sampled_fraction);
         ("ops", J.of_int s.ops);
         ("sustained_rate", J.of_float s.sustained_rate);
         ("peak_window_rate", J.of_float s.peak_window_rate);
         ("queue_high_water", J.of_int s.queue_high_water);
         ("disturbed", J.of_int s.disturbed);
         ("unconverged", J.of_int s.unconverged);
         ("converged_trials", J.of_int s.converged_trials);
         ("tail_p50", J.of_float s.p50);
         ("tail_p95", J.of_float s.p95);
         ("tail_p99", J.of_float s.p99);
         ("hist", Delay_hist.to_json t.pooled);
         ("trial_results", J.Arr (List.map trial_json (List.rev t.trials_rev)));
       ])

let write t path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (to_json t);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

let churn_suffix = ".churn.json"

let is_churn_path name =
  let base = Filename.basename name in
  String.length base > String.length churn_suffix
  && String.sub base (String.length base - String.length churn_suffix)
       (String.length churn_suffix)
     = churn_suffix

let read path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | text ->
    J.try_result (fun () ->
        let o = J.obj (J.parse text) in
        (match J.str (J.field o "schema") with
        | "bgp-churn/1" -> ()
        | other -> raise (J.Bad ("unsupported schema " ^ other)));
        {
          workload = J.str (J.field o "workload");
          trials = J.int (J.field o "trials");
          prefixes = J.int (J.field o "prefixes");
          universe = J.int (J.field o "universe");
          sampled_fraction = J.float (J.field o "sampled_fraction");
          ops = J.int (J.field o "ops");
          sustained_rate = J.float (J.field o "sustained_rate");
          peak_window_rate = J.float (J.field o "peak_window_rate");
          queue_high_water = J.int (J.field o "queue_high_water");
          disturbed = J.int (J.field o "disturbed");
          unconverged = J.int (J.field o "unconverged");
          converged_trials = J.int (J.field o "converged_trials");
          p50 = J.float (J.field o "tail_p50");
          p95 = J.float (J.field o "tail_p95");
          p99 = J.float (J.field o "tail_p99");
        })

let pp_summary ppf s =
  Fmt.pf ppf
    "%s: %d trial(s), %d ops over %d prefixes (universe %d, %.0f%% sampled)@.sustained %.1f \
     upd/s (peak window %.1f), queue high-water %d@.settle tails p50 %.3f s, p95 %.3f s, \
     p99 %.3f s; unconverged %d@."
    s.workload s.trials s.ops s.prefixes s.universe (100.0 *. s.sampled_fraction)
    s.sustained_rate s.peak_window_rate s.queue_high_water s.p50 s.p95 s.p99 s.unconverged
