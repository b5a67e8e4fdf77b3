type components = {
  queueing : float;
  processing : float;
  mrai_hold : float;
  propagation : float;
}

let zero = { queueing = 0.0; processing = 0.0; mrai_hold = 0.0; propagation = 0.0 }

let add a b =
  {
    queueing = a.queueing +. b.queueing;
    processing = a.processing +. b.processing;
    mrai_hold = a.mrai_hold +. b.mrai_hold;
    propagation = a.propagation +. b.propagation;
  }

let total c = c.queueing +. c.processing +. c.mrai_hold +. c.propagation

let component_names = [ "queueing"; "processing"; "mrai_hold"; "propagation" ]

let component c = function
  | "queueing" -> c.queueing
  | "processing" -> c.processing
  | "mrai_hold" -> c.mrai_hold
  | "propagation" -> c.propagation
  | name -> invalid_arg ("Attribution.component: unknown component " ^ name)

let dominant c =
  List.fold_left
    (fun best name -> if component c name > component c best then name else best)
    "queueing" component_names

type hop = { event : Trace.event; parts : components }
type router_stat = { router : int; residency : float; parts : components; hops : int }

type dest_attr = {
  dest : int;
  tail : float;
  dest_complete : bool;
  dest_parts : components;
  dest_path : hop list;
}

type tail_summary = { n_dests : int; p50 : float; p95 : float; p99 : float }

let no_tails = { n_dests = 0; p50 = 0.0; p95 = 0.0; p99 = 0.0 }

type t = {
  t_fail : float;
  convergence_delay : float;
  complete : bool;
  totals : components;
  critical_path : hop list;
  per_router : router_stat list;
  aggregate : components;
  aggregate_by_router : (int * components) list;
  events : int;
  per_dest : dest_attr list;
  tails : tail_summary;
}

(* Decompose one event's hop latency — its time minus its cause's time
   ([gap]) — into the four components.  Whatever a constructor cannot
   account for from its own timestamps is propagation, so the parts sum
   to [gap] by construction and the chain telescopes exactly.  [floor]
   clips the event's own timestamps for root hops measured against
   [t_fail]: a cause chain reaching back before the failure (e.g. a
   damping suppression begun during warmup) must not attribute
   pre-failure waiting to the post-failure window. *)
let parts_of_event event ~gap ~floor =
  match event with
  | Trace.Processed { time; enqueued; started; _ } ->
    let enqueued = Float.max enqueued floor in
    let started = Float.max started floor in
    let queueing = started -. enqueued in
    let processing = time -. started in
    { queueing; processing; mrai_hold = 0.0; propagation = gap -. queueing -. processing }
  | Trace.Mrai_flush { time; ready; _ } ->
    let mrai_hold = time -. Float.max ready floor in
    { zero with mrai_hold; propagation = gap -. mrai_hold }
  | Trace.Update_sent _ | Trace.Update_delivered _ | Trace.Session_down _
  | Trace.Session_up _ | Trace.Fault _ | Trace.Router_failed _ ->
    { zero with propagation = gap }

(* Latest event by (time, id); [id] breaks ties towards the event
   recorded last, hence causally downstream. *)
let latest events =
  List.fold_left
    (fun acc e ->
      match acc with
      | None -> Some e
      | Some best ->
        let te = Trace.time_of e and tb = Trace.time_of best in
        if te > tb || (te = tb && Trace.id_of e > Trace.id_of best) then Some e else acc)
    None events

(* Nearest-rank percentile over an ascending array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let summarize_tails per_dest =
  match per_dest with
  | [] -> no_tails
  | dests ->
    let tails = Array.of_list (List.map (fun d -> d.tail) dests) in
    Array.sort Float.compare tails;
    {
      n_dests = Array.length tails;
      p50 = percentile tails 0.50;
      p95 = percentile tails 0.95;
      p99 = percentile tails 0.99;
    }

let analyze ~t_fail events =
  let post = List.filter (fun e -> Trace.time_of e >= t_fail) events in
  let n_events = List.length post in
  (* Index every event (warmup included): a post-failure event may be
     caused by a pre-failure one — e.g. a damping reuse of a route parked
     during warmup — and such a chain roots at the analysis boundary
     rather than counting as broken. *)
  let by_id = Hashtbl.create (2 * List.length events) in
  List.iter (fun e -> Hashtbl.replace by_id (Trace.id_of e) e) events;
  (* How [event] connects backwards: a true causal root, a chain that
     crosses the failure boundary (rooted at [t_fail]), a resolvable
     cause, or a cause evicted from the ring (chain broken). *)
  let resolve event =
    let cause = Trace.cause_of event in
    if cause = Trace.no_cause then `Root
    else
      match Hashtbl.find_opt by_id cause with
      | None -> `Broken
      | Some c -> if Trace.time_of c < t_fail then `Pre_failure else `Cause c
  in
  let gap_of event =
    match resolve event with
    | `Root | `Pre_failure -> Some (Trace.time_of event -. t_fail)
    | `Cause c -> Some (Trace.time_of event -. Trace.time_of c)
    | `Broken -> None
  in
  (* The terminal-parameterized walk: follow cause pointers from
     [terminal] back to a root, building the path root first.  The same
     walk serves the network-wide critical path and every destination's
     own tail. *)
  let walk_from terminal =
    let rec walk event acc =
      match resolve event with
      | `Broken -> (false, { event; parts = zero } :: acc)
      | `Root | `Pre_failure ->
        let gap = Trace.time_of event -. t_fail in
        (true, { event; parts = parts_of_event event ~gap ~floor:t_fail } :: acc)
      | `Cause c ->
        let gap = Trace.time_of event -. Trace.time_of c in
        walk c ({ event; parts = parts_of_event event ~gap ~floor:Float.neg_infinity } :: acc)
    in
    walk terminal []
  in
  let path_totals path =
    List.fold_left (fun acc (hop : hop) -> add acc hop.parts) zero path
  in
  match latest post with
  | None ->
    {
      t_fail;
      convergence_delay = 0.0;
      complete = true;
      totals = zero;
      critical_path = [];
      per_router = [];
      aggregate = zero;
      aggregate_by_router = [];
      events = 0;
      per_dest = [];
      tails = no_tails;
    }
  | Some terminal ->
    let complete, critical_path = walk_from terminal in
    let totals = path_totals critical_path in
    let per_router =
      let table = Hashtbl.create 16 in
      List.iter
        (fun (hop : hop) ->
          let r = Trace.router_of hop.event in
          let parts, hops =
            Option.value ~default:(zero, 0) (Hashtbl.find_opt table r)
          in
          Hashtbl.replace table r (add parts hop.parts, hops + 1))
        critical_path;
      Hashtbl.fold
        (fun router (parts, hops) acc ->
          { router; residency = total parts; parts; hops } :: acc)
        table []
      |> List.sort (fun a b ->
             match Float.compare b.residency a.residency with
             | 0 -> Int.compare a.router b.router
             | c -> c)
    in
    (* The aggregate decomposition — the same per-event split summed over
       every post-failure event — kept per router so the collapsed-stack
       export can show where the whole network's time went. *)
    let aggregate, aggregate_by_router =
      let table = Hashtbl.create 16 in
      let agg =
        List.fold_left
          (fun acc e ->
            match gap_of e with
            | None -> acc
            | Some gap ->
              let floor =
                match resolve e with
                | `Root | `Pre_failure -> t_fail
                | `Cause _ | `Broken -> Float.neg_infinity
              in
              let parts = parts_of_event e ~gap ~floor in
              let r = Trace.router_of e in
              Hashtbl.replace table r
                (add parts (Option.value ~default:zero (Hashtbl.find_opt table r)));
              add acc parts)
          zero post
      in
      let by_router =
        List.sort
          (fun (a, _) (b, _) -> Int.compare a b)
          (Hashtbl.fold (fun r c acc -> (r, c) :: acc) table [])
      in
      (agg, by_router)
    in
    (* One attribution per destination: that destination's own terminal,
       walked back with the same parameterized walk, so each
       destination's components telescope to its own tail exactly. *)
    let per_dest =
      List.map
        (fun (dest, term) ->
          let dest_complete, dest_path = walk_from term in
          {
            dest;
            tail = Trace.time_of term -. t_fail;
            dest_complete;
            dest_parts = path_totals dest_path;
            dest_path;
          })
        (Trace.terminals_by_dest post)
      |> List.sort (fun a b ->
             match Float.compare b.tail a.tail with
             | 0 -> Int.compare a.dest b.dest
             | c -> c)
    in
    {
      t_fail;
      convergence_delay = Trace.time_of terminal -. t_fail;
      complete;
      totals;
      critical_path;
      per_router;
      aggregate;
      aggregate_by_router;
      events = n_events;
      per_dest;
      tails = summarize_tails per_dest;
    }

let of_trace ~t_fail trace = analyze ~t_fail (Trace.events trace)

let stragglers t = List.filter (fun d -> d.tail > t.tails.p95) t.per_dest

(* --- Collapsed-stack (flamegraph) export --------------------------------- *)

type flame_mode = Flame_aggregate | Flame_per_dest

(* inferno / speedscope collapsed format: semicolon-separated frames and
   an integer value per line.  Values are microseconds of simulated time,
   so rounding error is bounded by 0.5 us per emitted line. *)
let flame_value v = Printf.sprintf "%.0f" (Float.round (v *. 1e6))

let add_flame_lines buf ~prefix parts =
  List.iter
    (fun name ->
      let v = component parts name in
      if Float.round (v *. 1e6) >= 1.0 then
        Printf.bprintf buf "%s;%s %s\n" prefix name (flame_value v))
    component_names

let flamegraph_by_router by_router =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (router, parts) ->
      add_flame_lines buf ~prefix:(Printf.sprintf "router_%d" router) parts)
    by_router;
  Buffer.contents buf

let to_flamegraph ?(mode = Flame_aggregate) t =
  match mode with
  | Flame_aggregate -> flamegraph_by_router t.aggregate_by_router
  | Flame_per_dest ->
    let buf = Buffer.create 4096 in
    List.iter
      (fun d ->
        let table = Hashtbl.create 16 in
        let routers = ref [] in
        List.iter
          (fun (hop : hop) ->
            let r = Trace.router_of hop.event in
            (match Hashtbl.find_opt table r with
            | None ->
              routers := r :: !routers;
              Hashtbl.replace table r hop.parts
            | Some parts -> Hashtbl.replace table r (add parts hop.parts)))
          d.dest_path;
        List.iter
          (fun r ->
            add_flame_lines buf
              ~prefix:(Printf.sprintf "dest_%d;router_%d" d.dest r)
              (Hashtbl.find table r))
          (List.sort Int.compare !routers))
      (List.sort (fun a b -> Int.compare a.dest b.dest) t.per_dest);
    Buffer.contents buf

(* --- JSON ---------------------------------------------------------------- *)

module J = Json_lite

let components_json c =
  J.Obj
    [
      ("queueing", J.of_float c.queueing);
      ("processing", J.of_float c.processing);
      ("mrai_hold", J.of_float c.mrai_hold);
      ("propagation", J.of_float c.propagation);
      ("total", J.of_float (total c));
    ]

let tails_fields s =
  [
    ("dests", J.of_int s.n_dests);
    ("tail_p50", J.of_float s.p50);
    ("tail_p95", J.of_float s.p95);
    ("tail_p99", J.of_float s.p99);
  ]

let tails_json s = J.Obj (tails_fields s)

let straggler_json ~seed ~dest ~tail parts =
  J.Obj
    [
      ("seed", J.of_int seed);
      ("dest", J.of_int dest);
      ("tail", J.of_float tail);
      ("dominant", J.Str (dominant parts));
      ("parts", components_json parts);
    ]

let take n l = List.filteri (fun i _ -> i < n) l

let kind_of_event = function
  | Trace.Update_sent _ -> "update_sent"
  | Trace.Update_delivered _ -> "update_delivered"
  | Trace.Processed _ -> "processed"
  | Trace.Mrai_flush _ -> "mrai_flush"
  | Trace.Router_failed _ -> "router_failed"
  | Trace.Session_down _ -> "session_down"
  | Trace.Session_up _ -> "session_up"
  | Trace.Fault _ -> "fault"

let per_dest_json t =
  J.Obj
    (tails_fields t.tails
    @ [
        ( "destinations",
          J.Arr
            (List.map
               (fun d ->
                 J.Obj
                   [
                     ("dest", J.of_int d.dest);
                     ("tail", J.of_float d.tail);
                     ("complete", J.Bool d.dest_complete);
                     ("hops", J.of_int (List.length d.dest_path));
                     ("dominant", J.Str (dominant d.dest_parts));
                     ("parts", components_json d.dest_parts);
                   ])
               t.per_dest) );
      ])

let to_json ?(top = 10) t =
  J.to_string
    (J.Obj
       [
         ("schema", J.Str "bgp-attr/2");
         ("t_fail", J.of_float t.t_fail);
         ("convergence_delay", J.of_float t.convergence_delay);
         ("complete", J.Bool t.complete);
         ("events", J.of_int t.events);
         ("totals", components_json t.totals);
         ("aggregate", components_json t.aggregate);
         ("per_dest", per_dest_json t);
         ( "critical_path",
           J.Arr
             (List.map
                (fun hop ->
                  J.Obj
                    [
                      ("id", J.of_int (Trace.id_of hop.event));
                      ("kind", J.Str (kind_of_event hop.event));
                      ("time", J.of_float (Trace.time_of hop.event));
                      ("router", J.of_int (Trace.router_of hop.event));
                      ("cause", J.of_int (Trace.cause_of hop.event));
                      ("parts", components_json hop.parts);
                    ])
                t.critical_path) );
         ( "per_router",
           J.Arr
             (List.map
                (fun stat ->
                  J.Obj
                    [
                      ("router", J.of_int stat.router);
                      ("residency", J.of_float stat.residency);
                      ("hops", J.of_int stat.hops);
                      ("parts", components_json stat.parts);
                    ])
                (take top t.per_router)) );
       ])

(* --- Per-trial sidecars ---------------------------------------------------- *)

type sidecar_dest = {
  sd_dest : int;
  sd_tail : float;
  sd_complete : bool;
  sd_parts : components;
}

type sidecar = {
  sc_seed : int;
  sc_t_fail : float;
  sc_delay : float;
  sc_complete : bool;
  sc_events : int;
  sc_totals : components;
  sc_aggregate : components;
  sc_by_router : (int * components) list;
  sc_dests : sidecar_dest list;
  sc_violations : string list;
}

let sidecar_of ?(violations = []) ~seed t =
  {
    sc_seed = seed;
    sc_t_fail = t.t_fail;
    sc_delay = t.convergence_delay;
    sc_complete = t.complete;
    sc_events = t.events;
    sc_totals = t.totals;
    sc_aggregate = t.aggregate;
    sc_by_router = t.aggregate_by_router;
    sc_dests =
      List.map
        (fun d ->
          {
            sd_dest = d.dest;
            sd_tail = d.tail;
            sd_complete = d.dest_complete;
            sd_parts = d.dest_parts;
          })
        t.per_dest;
    sc_violations = violations;
  }

let sidecar_suffix = ".attr.json"
let sidecar_path trace = Filename.remove_extension trace ^ sidecar_suffix
let is_sidecar_path path = Filename.check_suffix path sidecar_suffix

let sidecar_to_json sc =
  J.to_string
    (J.Obj
       [
         ("schema", J.Str "bgp-attr-sidecar/1");
         ("seed", J.of_int sc.sc_seed);
         ("t_fail", J.of_float sc.sc_t_fail);
         ("delay", J.of_float sc.sc_delay);
         ("complete", J.Bool sc.sc_complete);
         ("events", J.of_int sc.sc_events);
         ("totals", components_json sc.sc_totals);
         ("aggregate", components_json sc.sc_aggregate);
         ( "by_router",
           J.Arr
             (List.map
                (fun (router, parts) -> J.Arr [ J.of_int router; components_json parts ])
                sc.sc_by_router) );
         ( "dests",
           J.Arr
             (List.map
                (fun d ->
                  J.Obj
                    [
                      ("dest", J.of_int d.sd_dest);
                      ("tail", J.of_float d.sd_tail);
                      ("complete", J.Bool d.sd_complete);
                      ("parts", components_json d.sd_parts);
                    ])
                sc.sc_dests) );
         ("violations", J.Arr (List.map (fun v -> J.Str v) sc.sc_violations));
       ])

let components_of_json j =
  let o = J.obj j in
  let f key = J.float (J.field o key) in
  {
    queueing = f "queueing";
    processing = f "processing";
    mrai_hold = f "mrai_hold";
    propagation = f "propagation";
  }

let sidecar_of_json s =
  J.try_result @@ fun () ->
    let o = J.obj (J.parse s) in
    (match J.str (J.field o "schema") with
    | "bgp-attr-sidecar/1" -> ()
    | other -> raise (J.Bad (Printf.sprintf "unknown sidecar schema %S" other)));
    {
      sc_seed = J.int (J.field o "seed");
      sc_t_fail = J.float (J.field o "t_fail");
      sc_delay = J.float (J.field o "delay");
      sc_complete = J.bool (J.field o "complete");
      sc_events = J.int (J.field o "events");
      sc_totals = components_of_json (J.field o "totals");
      sc_aggregate = components_of_json (J.field o "aggregate");
      sc_by_router =
        List.map
          (fun pair ->
            match J.arr pair with
            | [ router; parts ] -> (J.int router, components_of_json parts)
            | _ -> raise (J.Bad "by_router: expected a [router, parts] pair"))
          (J.arr (J.field o "by_router"));
      sc_dests =
        List.map
          (fun dj ->
            let d = J.obj dj in
            {
              sd_dest = J.int (J.field d "dest");
              sd_tail = J.float (J.field d "tail");
              sd_complete = J.bool (J.field d "complete");
              sd_parts = components_of_json (J.field d "parts");
            })
          (J.arr (J.field o "dests"));
      sc_violations = List.map J.str (J.arr (J.field o "violations"));
    }

(* Atomic write (temp + rename): a live directory watcher must never see
   a half-written sidecar, and a crash must not leave one behind as if it
   were complete. *)
let write_sidecar path sc =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match
     output_string oc (sidecar_to_json sc);
     output_char oc '\n'
   with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    raise e);
  Sys.rename tmp path

let read_sidecar path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
    match sidecar_of_json (String.trim contents) with
    | Ok sc -> Ok sc
    | Error msg -> Error (Printf.sprintf "%s: bad sidecar (%s)" path msg))

(* --- Multi-trial merge ---------------------------------------------------- *)

type trial = { trial_seed : int; attr : t }

type merged = {
  n_trials : int;
  mean_delay : float;
  merged_totals : components;
  merged_aggregate : components;
  pooled_tails : tail_summary;
  worst : (int * dest_attr) list;
}

let merge trials =
  match trials with
  | [] -> invalid_arg "Attribution.merge: no trials"
  | _ ->
    let n_trials = List.length trials in
    let mean_delay =
      List.fold_left (fun acc tr -> acc +. tr.attr.convergence_delay) 0.0 trials
      /. float_of_int n_trials
    in
    let merged_totals =
      List.fold_left (fun acc tr -> add acc tr.attr.totals) zero trials
    in
    let merged_aggregate =
      List.fold_left (fun acc tr -> add acc tr.attr.aggregate) zero trials
    in
    let pooled =
      List.concat_map
        (fun tr -> List.map (fun d -> (tr.trial_seed, d)) tr.attr.per_dest)
        trials
    in
    let pooled_tails =
      summarize_tails (List.map snd pooled)
    in
    let worst =
      List.sort
        (fun (sa, a) (sb, b) ->
          match Float.compare b.tail a.tail with
          | 0 -> ( match Int.compare sa sb with 0 -> Int.compare a.dest b.dest | c -> c)
          | c -> c)
        pooled
    in
    { n_trials; mean_delay; merged_totals; merged_aggregate; pooled_tails; worst }

let merged_to_json ?(top = 10) m =
  J.to_string
    (J.Obj
       [
         ("schema", J.Str "bgp-attr-merge/1");
         ("trials", J.of_int m.n_trials);
         ("mean_delay", J.of_float m.mean_delay);
         ("totals", components_json m.merged_totals);
         ("aggregate", components_json m.merged_aggregate);
         ("pooled_tails", tails_json m.pooled_tails);
         ( "stragglers",
           J.Arr
             (List.map
                (fun (seed, d) ->
                  straggler_json ~seed ~dest:d.dest ~tail:d.tail d.dest_parts)
                (take top m.worst)) );
       ])

(* --- Text report --------------------------------------------------------- *)

let pct part whole = if whole <= 0.0 then 0.0 else 100.0 *. part /. whole

let pp_components ppf c =
  let whole = total c in
  Fmt.pf ppf
    "queueing %.4fs (%.1f%%) | processing %.4fs (%.1f%%) | mrai hold %.4fs (%.1f%%) | propagation %.4fs (%.1f%%)"
    c.queueing (pct c.queueing whole) c.processing (pct c.processing whole) c.mrai_hold
    (pct c.mrai_hold whole) c.propagation
    (pct c.propagation whole)

let pp ?(top = 5) ?(max_hops = 40) ppf t =
  Fmt.pf ppf "Convergence-delay attribution@.";
  Fmt.pf ppf "  failure injected at t=%.4f; converged %.4fs later%s@." t.t_fail
    t.convergence_delay
    (if t.complete then "" else "  [INCOMPLETE: trace dropped part of the chain]");
  Fmt.pf ppf "  critical path: %a@." pp_components t.totals;
  Fmt.pf ppf "  network-wide:  %a  (%d events)@." pp_components t.aggregate t.events;
  let hops = List.length t.critical_path in
  Fmt.pf ppf "  critical path (%d hops):@." hops;
  (* Keep the ends of a long path: the root explains onset, the tail
     explains the terminal delay. *)
  let head_n = max_hops - (max_hops / 2) in
  let tail_from = hops - (max_hops / 2) in
  List.iteri
    (fun i hop ->
      if hops <= max_hops || i < head_n || i >= tail_from then
        Fmt.pf ppf "    %a@." Trace.pp_event hop.event
      else if i = head_n then Fmt.pf ppf "    ... (%d hops elided)@." (tail_from - head_n))
    t.critical_path;
  if t.per_router <> [] then begin
    Fmt.pf ppf "  top routers by critical-path residency:@.";
    List.iteri
      (fun i stat ->
        if i < top then
          Fmt.pf ppf "    router %3d: %.4fs (%.1f%%) over %d hops — %a@." stat.router
            stat.residency
            (pct stat.residency t.convergence_delay)
            stat.hops pp_components stat.parts)
      t.per_router
  end

let pp_per_dest ?(top = 5) ppf t =
  Fmt.pf ppf "Per-destination convergence tails@.";
  Fmt.pf ppf "  %d destinations re-converged; tail p50 %.4fs, p95 %.4fs, p99 %.4fs@."
    t.tails.n_dests t.tails.p50 t.tails.p95 t.tails.p99;
  let late = stragglers t in
  if late = [] then Fmt.pf ppf "  no stragglers beyond the p95 tail@."
  else begin
    Fmt.pf ppf "  %d straggler(s) beyond the p95 tail:@." (List.length late);
    List.iteri
      (fun i d ->
        if i < top then
          Fmt.pf ppf "    dest %3d: tail %.4fs (%d hops, dominant %s) — %a@." d.dest
            d.tail
            (List.length d.dest_path)
            (dominant d.dest_parts) pp_components d.dest_parts)
      late
  end;
  Fmt.pf ppf "  slowest destinations:@.";
  List.iteri
    (fun i d ->
      if i < top then
        Fmt.pf ppf "    dest %3d: tail %.4fs%s — %a@." d.dest d.tail
          (if d.dest_complete then "" else " [INCOMPLETE]")
          pp_components d.dest_parts)
    t.per_dest
