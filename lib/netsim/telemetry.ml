(* Telemetry: per-run counter/gauge registry, periodic per-router
   time-series probes, and CSV/JSONL/JSON exporters.

   An instance is created per Runner.run (never shared between trials),
   so enabling telemetry keeps every run a pure function of its seed:
   probes read router state, they never draw from an RNG or mutate the
   network.  The network layer registers getter-backed counters at build
   time and the runner drives the probe loop; this module owns only the
   data model and its serializations. *)

type config = {
  probe_interval : float;
  probe_warmup : bool;
  max_ticks : int;
}

let config ?(probe_interval = 0.5) ?(probe_warmup = false) ?(max_ticks = 4096) () =
  if probe_interval <= 0.0 then
    invalid_arg "Telemetry.config: probe_interval must be > 0";
  if max_ticks <= 0 then invalid_arg "Telemetry.config: max_ticks must be > 0";
  { probe_interval; probe_warmup; max_ticks }

type kind = Counter | Gauge

let kind_name = function Counter -> "counter" | Gauge -> "gauge"

type row = {
  router : int;
  queue_len : int;
  unfinished_work : float;
  mrai_level : int;
  mrai_transitions : int;
  rib_size : int;
  rib_changes : int;
}

type sample = { time : float; row : row }

type tick = { t : float; rows : row array }

type metric = { mkind : kind; read : unit -> float }

(* Memory accounting: estimated sizes from fixed word models (see
   Rib.approx_bytes / Path.table_stats), so every field is a pure
   function of simulated state — the same across jobs and safe to
   compare structurally.  One [shard_memory] per shard scheduler. *)
type shard_memory = {
  shard : int;
  routers : int;
  rib_entries : int;  (** Adj-RIB-In entries across the shard's routers *)
  rib_bytes : int;
  path_nodes : int;  (** path nodes the shard's routers built *)
  path_bytes : int;
  sched_max_live : int;  (** slab occupancy high-water *)
  sched_slab_cap : int;
}

type memory = {
  per_shard : shard_memory list;  (** sorted by shard *)
  rib_bytes_total : int;
  path_bytes_total : int;
  path_sharing : float;  (** naive hop storage / shared-spine storage *)
  trace_len : int;
  trace_cap : int;
  trace_dropped : int;
  trace_spilled : int;
}

type t = {
  conf : config;
  metrics : (string, metric) Hashtbl.t;
  mutable ticks_rev : tick list;
  mutable n_ticks : int;
  mutable dropped : int;
  mutable t_fail : float option;
  mutable memory : memory option;
}

let create conf =
  {
    conf;
    metrics = Hashtbl.create 32;
    ticks_rev = [];
    n_ticks = 0;
    dropped = 0;
    t_fail = None;
    memory = None;
  }

let set_memory t m = t.memory <- Some m

let conf t = t.conf

(* --- Registry ----------------------------------------------------------- *)

let register t ~name ~kind read =
  if Hashtbl.mem t.metrics name then
    invalid_arg (Printf.sprintf "Telemetry.register: duplicate metric %S" name);
  Hashtbl.replace t.metrics name { mkind = kind; read }

let counters t =
  Hashtbl.fold (fun name m acc -> (name, m.mkind, m.read ()) :: acc) t.metrics []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let counter_value t name =
  Option.map (fun m -> m.read ()) (Hashtbl.find_opt t.metrics name)

(* --- Probe recording ----------------------------------------------------- *)

let record_tick t ~time rows =
  if t.n_ticks >= t.conf.max_ticks then t.dropped <- t.dropped + 1
  else begin
    t.ticks_rev <- { t = time; rows } :: t.ticks_rev;
    t.n_ticks <- t.n_ticks + 1
  end

let ticks t = t.n_ticks
let dropped_ticks t = t.dropped
let set_fail_time t time = t.t_fail <- Some time

(* --- Report -------------------------------------------------------------- *)

type series_point = { time : float; value : float }

type report = {
  interval : float;
  t_fail : float option;
  probes : int;
  dropped : int;
  samples : sample array;
  progress : series_point array;
  counters : (string * kind * float) list;
  memory : memory option;
}

(* Convergence progress at tick k: the fraction of end-of-run survivors
   whose cumulative Loc-RIB revision count had already reached its final
   value — i.e. whose best routes were final.  The counter is monotone,
   so the series is nondecreasing and ends at 1. *)
let progress_of ticks =
  match List.rev ticks with
  | [] -> [||]
  | last :: _ ->
    let final = Hashtbl.create 256 in
    Array.iter (fun r -> Hashtbl.replace final r.router r.rib_changes) last.rows;
    let base = Array.length last.rows in
    Array.of_list
      (List.map
         (fun tick ->
           let settled =
             Array.fold_left
               (fun acc r ->
                 match Hashtbl.find_opt final r.router with
                 | Some f when r.rib_changes = f -> acc + 1
                 | Some _ | None -> acc)
               0 tick.rows
           in
           {
             time = tick.t;
             value = (if base = 0 then 1.0 else float_of_int settled /. float_of_int base);
           })
         ticks)

let report t =
  let ticks = List.rev t.ticks_rev in
  let samples =
    Array.of_list
      (List.concat_map
         (fun tick -> Array.to_list (Array.map (fun row -> { time = tick.t; row }) tick.rows))
         ticks)
  in
  {
    interval = t.conf.probe_interval;
    t_fail = t.t_fail;
    probes = t.n_ticks;
    dropped = t.dropped;
    samples;
    progress = progress_of ticks;
    counters = counters t;
    memory = t.memory;
  }

(* --- Exporters ----------------------------------------------------------- *)

let series_header = "time,router,queue_len,unfinished_work,mrai_level,mrai_transitions,rib_size,rib_changes"

let series_csv r =
  let buf = Buffer.create (64 * (1 + Array.length r.samples)) in
  Buffer.add_string buf series_header;
  Buffer.add_char buf '\n';
  Array.iter
    (fun (s : sample) ->
      Printf.bprintf buf "%.6g,%d,%d,%.6g,%d,%d,%d,%d\n" s.time s.row.router
        s.row.queue_len s.row.unfinished_work s.row.mrai_level s.row.mrai_transitions
        s.row.rib_size s.row.rib_changes)
    r.samples;
  Buffer.contents buf

let progress_csv r =
  let buf = Buffer.create (24 * (1 + Array.length r.progress)) in
  Buffer.add_string buf "time,fraction_final\n";
  Array.iter (fun (p : series_point) -> Printf.bprintf buf "%.6g,%.6g\n" p.time p.value) r.progress;
  Buffer.contents buf

let counters_csv r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "name,kind,value\n";
  List.iter
    (fun (name, kind, v) -> Printf.bprintf buf "%s,%s,%.6g\n" name (kind_name kind) v)
    r.counters;
  Buffer.contents buf

module J = Json_lite

let jsonl values =
  let buf = Buffer.create 1024 in
  List.iter
    (fun v ->
      J.to_buffer buf v;
      Buffer.add_char buf '\n')
    values;
  Buffer.contents buf

let counter_json (name, kind, v) =
  J.Obj [ ("name", J.Str name); ("kind", J.Str (kind_name kind)); ("value", J.of_float v) ]

let series_jsonl r =
  jsonl
    (Array.to_list
       (Array.map
          (fun (s : sample) ->
            J.Obj
              [
                ("time", J.of_float s.time);
                ("router", J.of_int s.row.router);
                ("queue_len", J.of_int s.row.queue_len);
                ("unfinished_work", J.of_float s.row.unfinished_work);
                ("mrai_level", J.of_int s.row.mrai_level);
                ("mrai_transitions", J.of_int s.row.mrai_transitions);
                ("rib_size", J.of_int s.row.rib_size);
                ("rib_changes", J.of_int s.row.rib_changes);
              ])
          r.samples))

let counters_jsonl r = jsonl (List.map counter_json r.counters)

let memory_json m =
  J.Obj
    [
      ( "per_shard",
        J.Arr
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("shard", J.of_int s.shard);
                   ("routers", J.of_int s.routers);
                   ("rib_entries", J.of_int s.rib_entries);
                   ("rib_bytes", J.of_int s.rib_bytes);
                   ("path_nodes", J.of_int s.path_nodes);
                   ("path_bytes", J.of_int s.path_bytes);
                   ("sched_max_live", J.of_int s.sched_max_live);
                   ("sched_slab_cap", J.of_int s.sched_slab_cap);
                 ])
             m.per_shard) );
      ("rib_bytes_total", J.of_int m.rib_bytes_total);
      ("path_bytes_total", J.of_int m.path_bytes_total);
      ("path_sharing", J.of_float m.path_sharing);
      ( "trace",
        J.Obj
          [
            ("len", J.of_int m.trace_len);
            ("cap", J.of_int m.trace_cap);
            ("dropped", J.of_int m.trace_dropped);
            ("spilled", J.of_int m.trace_spilled);
          ] );
    ]

let report_json r =
  J.to_string
    (J.Obj
       [
         ("schema", J.Str "bgp-telemetry/1");
         ("probe_interval", J.of_float r.interval);
         ("t_fail", J.of_option J.of_float r.t_fail);
         ("probes", J.of_int r.probes);
         ("dropped", J.of_int r.dropped);
         ("samples", J.of_int (Array.length r.samples));
         ( "progress",
           J.Arr
             (Array.to_list
                (Array.map
                   (fun (p : series_point) -> J.Arr [ J.of_float p.time; J.of_float p.value ])
                   r.progress)) );
         ("counters", J.Arr (List.map counter_json r.counters));
         ("memory", J.of_option memory_json r.memory);
       ])
  ^ "\n"

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let export ~dir ?(prefix = "") r =
  mkdir_p dir;
  let files =
    [
      ("series.csv", series_csv r);
      ("progress.csv", progress_csv r);
      ("counters.csv", counters_csv r);
      ("series.jsonl", series_jsonl r);
      ("counters.jsonl", counters_jsonl r);
      ("report.json", report_json r);
    ]
  in
  List.map
    (fun (name, contents) ->
      let path = Filename.concat dir (prefix ^ name) in
      write_file path contents;
      path)
    files

(* --- Summary ------------------------------------------------------------- *)

let peak_work r =
  Array.fold_left
    (fun ((_, best_w) as best) s ->
      if s.row.unfinished_work > best_w then (s.time, s.row.unfinished_work) else best)
    (0.0, 0.0) r.samples

let max_level r =
  Array.fold_left (fun acc s -> Stdlib.max acc s.row.mrai_level) 0 r.samples

let pp_summary ppf r =
  let t_peak, w_peak = peak_work r in
  Fmt.pf ppf "%d probes every %gs%s, peak queue work %.3f s at t=%.1f, max MRAI level %d"
    r.probes r.interval
    (if r.dropped > 0 then Printf.sprintf " (%d dropped)" r.dropped else "")
    w_peak t_peak (max_level r)
