(* figures: regenerate the paper's evaluation figures (Figs 1-13) and the
   ablation studies, printing each table, its chart and its PASS/FAIL
   shape verdicts against the paper's qualitative claims.

   Examples:
     figures                                  # all 13 figures, quick grids
     figures fig3 fig7 --trials 5 --full
     figures all --csv out/ --jobs 4
     figures ablations                        # all 14 ablations
     figures dynamic-restart damping --trials 1
     figures fig1 --trials 2 --prof PROF_fig1.json

   Every trial owns its seed, RNG and scheduler, so the output is
   identical for every --jobs; only the "(X s wall)" lines change. *)

open Cmdliner

module Figure = Bgp_experiments.Figure
module Figures = Bgp_experiments.Figures
module Ablations = Bgp_experiments.Ablations
module Scenarios = Bgp_experiments.Scenarios
module Verdicts = Bgp_experiments.Verdicts
module Pool = Bgp_engine.Pool
module Profile = Bgp_engine.Profile

(* The constructors one positional id names: a figure (any form
   [Figures.by_id] accepts), "all", an ablation, or "ablations". *)
let select id =
  match id with
  | "all" -> Ok (List.map snd Figures.all)
  | "ablations" -> Ok (List.map snd Ablations.all)
  | _ -> (
    match (List.assoc_opt id Ablations.all, Figures.by_id id) with
    | Some make, _ | None, Some make -> Ok [ make ]
    | None, None ->
      Error
        (Printf.sprintf "unknown figure %S (fig1..fig13, all, ablations or one of: %s)" id
           (String.concat ", " (List.map fst Ablations.all))))

(* Every argument is checked before any simulation runs, so a bad one
   costs one [error:] line and exit 1. *)
let check ~trials ~jobs ids =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match trials with
  | Some t when t < 1 -> fail "--trials must be >= 1, got %d" t
  | _ when jobs < 0 -> fail "--jobs must be >= 0 (0 = auto), got %d" jobs
  | _ ->
    List.fold_left
      (fun acc id -> Result.bind acc (fun makes -> Result.map (( @ ) makes) (select id)))
      (Ok []) ids

let write_file path content =
  Out_channel.with_open_text path (fun oc -> output_string oc content)

let run ids full trials csv_dir jobs prof =
  match check ~trials ~jobs (if ids = [] then [ "all" ] else ids) with
  | Error m ->
    Fmt.epr "error: %s@." m;
    1
  | Ok makes ->
    let opts = if full then Scenarios.default else Scenarios.quick in
    let opts = match trials with None -> opts | Some t -> { opts with Scenarios.trials = t } in
    if jobs > 0 then Pool.set_default_jobs jobs;
    Fmt.pr "figures: %d trials/point, %d-node flat topologies, %d jobs@."
      opts.Scenarios.trials opts.Scenarios.n (Pool.default_jobs ());
    (* Armed before the first simulation so pool job/wait and runner
       phase spans cover every figure. *)
    if prof <> None then Profile.start ();
    let pass = ref 0 and total = ref 0 in
    List.iter
      (fun make ->
        let t0 = Unix.gettimeofday () in
        let fig = make opts in
        let wall = Unix.gettimeofday () -. t0 in
        Fmt.pr "@.%a" Figure.pp fig;
        Fmt.pr "%a" Figure.pp_chart fig;
        List.iter
          (fun v ->
            incr total;
            if v.Verdicts.holds then incr pass;
            Fmt.pr "  %a@." Verdicts.pp_verdict v)
          (Verdicts.check fig);
        Fmt.pr "  (%.1f s wall)@." wall;
        Option.iter
          (fun dir ->
            (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
            let path = Filename.concat dir (fig.Figure.id ^ ".csv") in
            write_file path (Figure.to_csv fig);
            Fmt.pr "  wrote %s@." path)
          csv_dir)
      makes;
    Fmt.pr "@.shape verdicts: %d/%d hold@." !pass !total;
    Option.iter
      (fun path ->
        Option.iter
          (fun r ->
            write_file path (Profile.to_json r ^ "\n");
            Fmt.pr "wrote %s@." path)
          (Profile.stop ()))
      prof;
    0

let ids =
  Arg.(value & pos_all string []
       & info [] ~docv:"FIGURE"
           ~doc:"fig1..fig13, all (the 13 figures, the default), an ablation name, or \
                 ablations (all 14).")

let full = Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale grids (slower).")
let trials = Arg.(value & opt (some int) None & info [ "trials" ] ~doc:"Seeds per point.")

let csv_dir =
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc:"Also write CSVs.")

let jobs =
  Arg.(value & opt int 0
       & info [ "jobs" ] ~docv:"N"
           ~doc:"Run each figure's trials on N domains (0 = one per recommended core).  \
                 The output is identical for every N.")

let prof =
  Arg.(value & opt (some string) None
       & info [ "prof" ] ~docv:"PATH"
           ~doc:"Profile the whole run's wall time (pool job/wait spans, runner phases \
                 and the windows inside them, each with its exact total and self time; \
                 the session's GC delta) and write a bgp-prof/2 JSON report to PATH.")

let cmd =
  let doc = "regenerate the paper's evaluation figures and the ablation studies" in
  Cmd.v (Cmd.info "figures" ~doc)
    Term.(const run $ ids $ full $ trials $ csv_dir $ jobs $ prof)

let () = exit (Cmd.eval' cmd)
