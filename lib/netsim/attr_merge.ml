module A = Attribution

type straggler = { seed : int; dest : int; tail : float; parts : A.components }

(* The straggler board keeps the [max_stragglers] best samples under the
   reference sort order (tail desc, then seed, then dest — the same
   tie-break {!Attribution.merge} uses), maintained as a sorted list.  The
   board is small, so ordered insertion beats a heap on simplicity and is
   deterministic by construction. *)
let max_stragglers = 64

let straggler_compare a b =
  match Float.compare b.tail a.tail with
  | 0 -> ( match Int.compare a.seed b.seed with 0 -> Int.compare a.dest b.dest | c -> c)
  | c -> c

let straggler_before a b = straggler_compare a b < 0

type t = {
  mutable n_trials : int;
  mutable from_sidecars : int;
  mutable reparsed : int;
  mutable delay_sum : float;
  mutable totals : A.components;
  mutable aggregate : A.components;
  by_router : (int, A.components) Hashtbl.t;
  hist : Delay_hist.t;
  mutable pass : int;
  mutable fail : int;
  viol_tally : (string, int) Hashtbl.t;
  mutable worst : straggler list;  (* sorted best (slowest) first, length <= K *)
  mutable worst_len : int;
  mutable n_skipped : int;
  mutable first_err : string option;
}

let create () =
  {
    n_trials = 0;
    from_sidecars = 0;
    reparsed = 0;
    delay_sum = 0.0;
    totals = A.zero;
    aggregate = A.zero;
    by_router = Hashtbl.create 64;
    hist = Delay_hist.create ();
    pass = 0;
    fail = 0;
    viol_tally = Hashtbl.create 8;
    worst = [];
    worst_len = 0;
    n_skipped = 0;
    first_err = None;
  }

let insert_straggler t s =
  let rec insert = function
    | [] -> [ s ]
    | x :: _ as l when straggler_before s x -> s :: l
    | x :: rest -> x :: insert rest
  in
  if t.worst_len < max_stragglers then begin
    t.worst <- insert t.worst;
    t.worst_len <- t.worst_len + 1
  end
  else if straggler_before s (List.nth t.worst (t.worst_len - 1)) then
    t.worst <- List.filteri (fun i _ -> i < max_stragglers) (insert t.worst)

let add_sidecar ?(reparsed = false) t (sc : A.sidecar) =
  t.n_trials <- t.n_trials + 1;
  if reparsed then t.reparsed <- t.reparsed + 1
  else t.from_sidecars <- t.from_sidecars + 1;
  t.delay_sum <- t.delay_sum +. sc.A.sc_delay;
  t.totals <- A.add t.totals sc.A.sc_totals;
  t.aggregate <- A.add t.aggregate sc.A.sc_aggregate;
  List.iter
    (fun (router, parts) ->
      let prev = Option.value ~default:A.zero (Hashtbl.find_opt t.by_router router) in
      Hashtbl.replace t.by_router router (A.add prev parts))
    sc.A.sc_by_router;
  List.iter
    (fun (d : A.sidecar_dest) ->
      Delay_hist.add t.hist d.A.sd_tail;
      insert_straggler t
        { seed = sc.A.sc_seed; dest = d.A.sd_dest; tail = d.A.sd_tail; parts = d.A.sd_parts })
    sc.A.sc_dests;
  (match sc.A.sc_violations with
  | [] -> t.pass <- t.pass + 1
  | vs ->
    t.fail <- t.fail + 1;
    List.iter
      (fun v ->
        Hashtbl.replace t.viol_tally v
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.viol_tally v)))
      (List.sort_uniq String.compare vs))

let skip t msg =
  t.n_skipped <- t.n_skipped + 1;
  if t.first_err = None then t.first_err <- Some msg

let trials t = t.n_trials
let skipped t = t.n_skipped
let first_error t = t.first_err

(* --- Reports -------------------------------------------------------------- *)

type report = {
  r_trials : int;
  r_from_sidecars : int;
  r_reparsed : int;
  r_skipped : int;
  r_first_error : string option;
  r_mean_delay : float;
  r_totals : A.components;
  r_aggregate : A.components;
  r_dests : int;
  r_p50 : float;
  r_p95 : float;
  r_p99 : float;
  r_pass : int;
  r_fail : int;
  r_violations : (string * int) list;
  r_stragglers : straggler list;
}

let report t =
  {
    r_trials = t.n_trials;
    r_from_sidecars = t.from_sidecars;
    r_reparsed = t.reparsed;
    r_skipped = t.n_skipped;
    r_first_error = t.first_err;
    r_mean_delay =
      (if t.n_trials = 0 then 0.0 else t.delay_sum /. float_of_int t.n_trials);
    r_totals = t.totals;
    r_aggregate = t.aggregate;
    r_dests = Delay_hist.count t.hist;
    r_p50 = Delay_hist.percentile t.hist 0.50;
    r_p95 = Delay_hist.percentile t.hist 0.95;
    r_p99 = Delay_hist.percentile t.hist 0.99;
    r_pass = t.pass;
    r_fail = t.fail;
    r_violations =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.viol_tally []);
    r_stragglers = t.worst;
  }

module J = Json_lite

let battery_json r =
  J.Obj
    [
      ("pass", J.of_int r.r_pass);
      ("fail", J.of_int r.r_fail);
      ( "violations",
        J.Obj (List.map (fun (name, count) -> (name, J.of_int count)) r.r_violations) );
    ]

let to_json ?(top = 10) t =
  let r = report t in
  J.to_string
    (J.Obj
       [
         ("schema", J.Str "bgp-attr-merge/1");
         ("trials", J.of_int r.r_trials);
         ("mean_delay", J.of_float r.r_mean_delay);
         ( "sources",
           J.Obj
             [
               ("sidecars", J.of_int r.r_from_sidecars);
               ("reparsed", J.of_int r.r_reparsed);
               ("skipped", J.of_int r.r_skipped);
               ("first_error", J.of_option (fun m -> J.Str m) r.r_first_error);
             ] );
         ("totals", A.components_json r.r_totals);
         ("aggregate", A.components_json r.r_aggregate);
         ( "pooled_tails",
           A.tails_json { A.n_dests = r.r_dests; p50 = r.r_p50; p95 = r.r_p95; p99 = r.r_p99 }
         );
         ("histogram", Delay_hist.to_json t.hist);
         ("battery", battery_json r);
         ( "stragglers",
           J.Arr
             (List.map
                (fun s -> A.straggler_json ~seed:s.seed ~dest:s.dest ~tail:s.tail s.parts)
                (List.filteri (fun i _ -> i < top) r.r_stragglers)) );
       ])

let to_flamegraph t =
  A.flamegraph_by_router
    (List.sort
       (fun (a, _) (b, _) -> Int.compare a b)
       (Hashtbl.fold (fun r parts acc -> (r, parts) :: acc) t.by_router []))

let pp ?(top = 5) ppf t =
  let r = report t in
  Fmt.pf ppf "Merged attribution over %d trials (%d sidecars, %d re-parsed)@." r.r_trials
    r.r_from_sidecars r.r_reparsed;
  (match (r.r_skipped, r.r_first_error) with
  | 0, _ -> ()
  | n, err ->
    Fmt.pf ppf "  SKIPPED %d unreadable input(s); first: %s@." n
      (Option.value ~default:"?" err));
  Fmt.pf ppf "  mean convergence delay %.4fs@." r.r_mean_delay;
  Fmt.pf ppf "  critical paths: %a@." A.pp_components r.r_totals;
  Fmt.pf ppf "  network-wide:   %a@." A.pp_components r.r_aggregate;
  Fmt.pf ppf
    "  pooled tails over %d (trial, dest) pairs: p50 %.4fs, p95 %.4fs, p99 %.4fs \
     (histogram, <2%% rel. error)@."
    r.r_dests r.r_p50 r.r_p95 r.r_p99;
  if r.r_fail > 0 || r.r_pass > 0 then
    Fmt.pf ppf "  invariant battery: %d pass, %d fail%s@." r.r_pass r.r_fail
      (match r.r_violations with
      | [] -> ""
      | vs ->
        Printf.sprintf " (%s)"
          (String.concat ", "
             (List.map (fun (name, count) -> Printf.sprintf "%s x%d" name count) vs)));
  Fmt.pf ppf "  worst straggler destinations across the sweep:@.";
  List.iteri
    (fun i s ->
      if i < top then
        Fmt.pf ppf "    seed %3d dest %3d: tail %.4fs (dominant %s)@." s.seed s.dest
          s.tail (A.dominant s.parts))
    r.r_stragglers

(* --- Directory loading ---------------------------------------------------- *)

type item = Use_sidecar of string | Use_trace of string

let stem_of file =
  if A.is_sidecar_path file then
    Some (`Sidecar, Filename.chop_suffix file ".attr.json")
  else if Filename.check_suffix file ".jsonl" then
    Some (`Trace, Filename.remove_extension file)
  else None

let plan ?(reparse = false) dir =
  let entries = Sys.readdir dir in
  Array.sort String.compare entries;
  let sidecars = Hashtbl.create 64 and traces = Hashtbl.create 64 in
  let stems = ref [] in
  Array.iter
    (fun file ->
      match stem_of file with
      | None -> ()
      | Some (kind, stem) ->
        if not (Hashtbl.mem sidecars stem || Hashtbl.mem traces stem) then
          stems := stem :: !stems;
        let table = match kind with `Sidecar -> sidecars | `Trace -> traces in
        Hashtbl.replace table stem file)
    entries;
  List.rev !stems
  |> List.sort String.compare
  |> List.map (fun stem ->
         let sidecar = Hashtbl.find_opt sidecars stem in
         let trace = Hashtbl.find_opt traces stem in
         match (sidecar, trace, reparse) with
         | Some s, None, _ -> Use_sidecar (Filename.concat dir s)
         | Some s, Some _, false -> Use_sidecar (Filename.concat dir s)
         | _, Some tr, _ -> Use_trace (Filename.concat dir tr)
         | None, None, _ -> assert false)

let load_item = function
  | Use_sidecar path -> A.read_sidecar path
  | Use_trace path -> (
    let paths = Bgp_proto.Path.create_table () in
    match Trace.read_file ~paths path with
    | Error msg -> Error msg
    | Ok (None, _) ->
      Error (Printf.sprintf "%s: no meta line (not a finalized trace)" path)
    | Ok (Some meta, events) ->
      let attr = A.analyze ~t_fail:meta.Trace.t_fail events in
      Ok (A.sidecar_of ~seed:meta.Trace.seed attr))

let load ?jobs t items =
  let loaded = Bgp_engine.Pool.map ?jobs load_item items in
  List.iter2
    (fun item result ->
      match result with
      | Error msg -> skip t msg
      | Ok sc ->
        let reparsed = match item with Use_sidecar _ -> false | Use_trace _ -> true in
        add_sidecar ~reparsed t sc)
    items loaded
