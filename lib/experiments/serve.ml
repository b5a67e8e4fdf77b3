module A = Bgp_netsim.Attribution
module M = Bgp_netsim.Attr_merge
module J = Bgp_netsim.Json_lite

type t = {
  dir : string;
  acc : M.t;
  seen : (string, unit) Hashtbl.t;  (* sidecar file names already folded *)
  started : float;  (* wall clock at create, for uptime / trials-per-sec *)
  mutable churn : (string * Churn_report.summary) list;
      (* (file name, summary) of folded churn campaigns, newest first *)
  mutable scans : int;
  mutable folded : int;
  mutable requests : int;
  mutable q_status : int;
  mutable q_report : int;
  mutable q_flame : int;
  mutable q_metrics : int;
  mutable fold_s : float;  (* cumulative wall seconds inside [scan] *)
  mutable last_scan : float;  (* wall clock of the last completed scan *)
}

let create ~dir () =
  {
    dir;
    acc = M.create ();
    seen = Hashtbl.create 256;
    started = Unix.gettimeofday ();
    churn = [];
    scans = 0;
    folded = 0;
    requests = 0;
    q_status = 0;
    q_report = 0;
    q_flame = 0;
    q_metrics = 0;
    fold_s = 0.0;
    last_scan = 0.0;
  }

(* Resident set size from /proc/self/statm (Linux); 0 where that is
   unavailable.  Page size is not exposed by [Unix], so assume 4 KiB —
   right on every platform with /proc. *)
let rss_bytes () =
  match open_in "/proc/self/statm" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match String.split_on_char ' ' (input_line ic) with
        | _ :: resident :: _ ->
          (match int_of_string_opt resident with Some p -> p * 4096 | None -> 0)
        | _ -> 0
        | exception End_of_file -> 0)

(* One incremental pass: fold every sidecar we have not seen yet.  Only
   [*.attr.json] files count — trace JSONL is deliberately invisible to
   the service, and sidecars are renamed into place atomically, so a
   name either is not there yet or is a complete document.  A file that
   fails to parse is recorded as skipped and marked seen, so a corrupt
   drop is reported once, not once per scan. *)
let scan t =
  let t0 = Unix.gettimeofday () in
  t.scans <- t.scans + 1;
  let names = try Sys.readdir t.dir with Sys_error _ -> [||] in
  Array.sort String.compare names;
  let n = ref 0 in
  Array.iter
    (fun name ->
      if A.is_sidecar_path name && not (Hashtbl.mem t.seen name) then begin
        Hashtbl.add t.seen name ();
        match A.read_sidecar (Filename.concat t.dir name) with
        | Ok sc ->
          M.add_sidecar t.acc sc;
          incr n
        | Error e -> M.skip t.acc e
      end
      else if Churn_report.is_churn_path name && not (Hashtbl.mem t.seen name) then begin
        (* Churn campaign artifacts (bgp-churn/1) ride the same scan:
           their summaries back the workload gauges, separate from the
           attribution accumulator. *)
        Hashtbl.add t.seen name ();
        match Churn_report.read (Filename.concat t.dir name) with
        | Ok s -> t.churn <- (name, s) :: t.churn
        | Error e -> M.skip t.acc e
      end)
    names;
  t.folded <- t.folded + !n;
  let t1 = Unix.gettimeofday () in
  t.fold_s <- t.fold_s +. (t1 -. t0);
  t.last_scan <- t1;
  !n

let trials t = M.trials t.acc

let status_json t =
  let r = M.report t.acc in
  let uptime = Unix.gettimeofday () -. t.started in
  let rate = if uptime > 0. then float_of_int r.M.r_trials /. uptime else 0. in
  (* Active workload kind: the newest folded churn campaign's, or
     "one-shot" when only attribution sidecars have been folded. *)
  let workload =
    match t.churn with
    | (_, s) :: _ -> Some s.Churn_report.workload
    | [] -> if r.M.r_trials > 0 then Some "one-shot" else None
  in
  let gc = Gc.quick_stat () in
  let str s = J.Str s in
  J.to_string
    (J.Obj
       [
         ("schema", J.Str "bgp-serve-status/2");
         ("dir", J.Str t.dir);
         ("uptime", J.of_float uptime);
         ("trials", J.of_int r.M.r_trials);
         ("dests", J.of_int r.M.r_dests);
         ("skipped", J.of_int r.M.r_skipped);
         ("first_error", J.of_option str r.M.r_first_error);
         ("mean_delay", J.of_float r.M.r_mean_delay);
         ("tail_p50", J.of_float r.M.r_p50);
         ("tail_p95", J.of_float r.M.r_p95);
         ("tail_p99", J.of_float r.M.r_p99);
         ("battery", M.battery_json r);
         ("trials_per_sec", J.of_float rate);
         ("workload", J.of_option str workload);
         ("churn_campaigns", J.of_int (List.length t.churn));
         (* /2 additions: explicit-unit uptime plus process gauges, so a
            status poll answers "is this instance healthy" without the
            metrics verb. *)
         ("uptime_s", J.of_float uptime);
         ("rss_bytes", J.of_int (rss_bytes ()));
         ( "gc",
           J.Obj
             [
               ("heap_words", J.of_int gc.Gc.heap_words);
               ("minor_collections", J.of_int gc.Gc.minor_collections);
               ("major_collections", J.of_int gc.Gc.major_collections);
             ] );
         ( "counters",
           J.Obj
             [
               ("scans", J.of_int t.scans);
               ("folded", J.of_int t.folded);
               ("requests", J.of_int t.requests);
               ("status", J.of_int t.q_status);
               ("report", J.of_int t.q_report);
               ("flame", J.of_int t.q_flame);
               ("metrics", J.of_int t.q_metrics);
             ] );
       ])

(* Prometheus text exposition format, version 0.0.4: HELP/TYPE comment
   pairs then one sample per line.  Scrapers poll this through
   [serve --query metrics] (or anything that can speak the one-line
   socket protocol). *)
let metrics_text t =
  let r = M.report t.acc in
  let now = Unix.gettimeofday () in
  let gc = Gc.quick_stat () in
  let b = Buffer.create 2048 in
  let sample ?labels ~help ~typ name v =
    Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n%s%s %s\n" name help name typ name
      (match labels with None -> "" | Some l -> "{" ^ l ^ "}")
      (J.float_lit v)
  in
  sample "bgp_serve_uptime_seconds" ~help:"Seconds since the server started."
    ~typ:"gauge" (now -. t.started);
  sample "bgp_serve_scans_total" ~help:"Directory scans performed." ~typ:"counter"
    (float_of_int t.scans);
  sample "bgp_serve_folded_trials_total" ~help:"Sidecars folded into the accumulator."
    ~typ:"counter" (float_of_int t.folded);
  sample "bgp_serve_skipped_total" ~help:"Sidecars skipped as unreadable."
    ~typ:"counter" (float_of_int r.M.r_skipped);
  sample "bgp_serve_requests_total" ~help:"Requests answered." ~typ:"counter"
    (float_of_int t.requests);
  sample "bgp_serve_fold_seconds_total"
    ~help:"Wall seconds spent scanning and folding sidecars." ~typ:"counter" t.fold_s;
  sample "bgp_serve_fold_lag_seconds"
    ~help:"Seconds since the last completed scan (staleness of answers)."
    ~typ:"gauge"
    (if t.last_scan > 0.0 then now -. t.last_scan else 0.0);
  sample "bgp_serve_trials" ~help:"Trials folded so far." ~typ:"gauge"
    (float_of_int r.M.r_trials);
  sample "bgp_serve_dests" ~help:"Pooled destination tails." ~typ:"gauge"
    (float_of_int r.M.r_dests);
  sample "bgp_serve_mean_delay_seconds" ~help:"Mean convergence delay." ~typ:"gauge"
    r.M.r_mean_delay;
  Printf.bprintf b
    "# HELP bgp_serve_tail_seconds Pooled per-destination tail percentiles.\n\
     # TYPE bgp_serve_tail_seconds gauge\n";
  Printf.bprintf b "bgp_serve_tail_seconds{quantile=\"0.5\"} %s\n" (J.float_lit r.M.r_p50);
  Printf.bprintf b "bgp_serve_tail_seconds{quantile=\"0.95\"} %s\n" (J.float_lit r.M.r_p95);
  Printf.bprintf b "bgp_serve_tail_seconds{quantile=\"0.99\"} %s\n" (J.float_lit r.M.r_p99);
  sample "bgp_serve_battery_pass_total" ~help:"Trials whose shape battery passed."
    ~typ:"counter" (float_of_int r.M.r_pass);
  sample "bgp_serve_battery_fail_total" ~help:"Trials whose shape battery failed."
    ~typ:"counter" (float_of_int r.M.r_fail);
  sample "bgp_churn_campaigns" ~help:"Churn campaign artifacts folded." ~typ:"gauge"
    (float_of_int (List.length t.churn));
  (* Per-campaign steady-state gauges, labeled by artifact file name. *)
  if t.churn <> [] then begin
    let labeled name help each =
      Printf.bprintf b "# HELP %s %s\n# TYPE %s gauge\n" name help name;
      List.iter
        (fun (file, (s : Churn_report.summary)) ->
          Printf.bprintf b "%s{campaign=%s} %s\n" name (J.escape file)
            (J.float_lit (each s)))
        (List.rev t.churn)
    in
    labeled "bgp_churn_sustained_updates_per_second"
      "Mean sustained update-processing throughput under churn." (fun s ->
        s.Churn_report.sustained_rate);
    labeled "bgp_churn_peak_window_updates_per_second"
      "Best single-window update throughput under churn." (fun s ->
        s.Churn_report.peak_window_rate);
    labeled "bgp_churn_queue_high_water" "Deepest input queue seen under churn."
      (fun s -> float_of_int s.Churn_report.queue_high_water);
    labeled "bgp_churn_unconverged_prefixes"
      "Prefixes inconsistent after the churn schedule quiesced." (fun s ->
        float_of_int s.Churn_report.unconverged);
    labeled "bgp_churn_settle_p99_seconds"
      "Pooled p99 per-prefix settle delay under churn." (fun s -> s.Churn_report.p99)
  end;
  sample "bgp_process_resident_memory_bytes" ~help:"Resident set size."
    ~typ:"gauge"
    (float_of_int (rss_bytes ()));
  sample "bgp_gc_heap_words" ~help:"OCaml major heap size in words." ~typ:"gauge"
    (float_of_int gc.Gc.heap_words);
  sample "bgp_gc_minor_collections_total" ~help:"Minor collections." ~typ:"counter"
    (float_of_int gc.Gc.minor_collections);
  sample "bgp_gc_major_collections_total" ~help:"Major collections." ~typ:"counter"
    (float_of_int gc.Gc.major_collections);
  Buffer.contents b

let handle t line =
  t.requests <- t.requests + 1;
  match String.trim line with
  | "status" ->
    t.q_status <- t.q_status + 1;
    status_json t
  | "report" ->
    t.q_report <- t.q_report + 1;
    M.to_json t.acc
  | "flame" ->
    t.q_flame <- t.q_flame + 1;
    M.to_flamegraph t.acc
  | "metrics" ->
    t.q_metrics <- t.q_metrics + 1;
    metrics_text t
  | "shutdown" ->
    J.to_string (J.Obj [ ("schema", J.Str "bgp-serve-status/2"); ("shutdown", J.Bool true) ])
  | other -> J.to_string (J.Obj [ ("error", J.Str ("unknown request: " ^ other)) ])

(* Read one request line from a connection (client half-closes after
   sending, so EOF also terminates the request). *)
let read_request fd =
  let buf = Buffer.create 64 in
  let chunk = Bytes.create 256 in
  let rec go () =
    if Buffer.length buf > 4096 then ()
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        if not (String.contains (Buffer.contents buf) '\n') then go ()
  in
  go ();
  match String.index_opt (Buffer.contents buf) '\n' with
  | Some i -> String.sub (Buffer.contents buf) 0 i
  | None -> Buffer.contents buf

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      let n = Unix.write fd b off (Bytes.length b - off) in
      go (off + n)
  in
  go 0

(* Seconds a connection may block the loop in one read or write. *)
let io_timeout = 1.0

let run ?max_requests ?(scan_interval = 0.5) ~socket ~dir () =
  (* A client that hangs up before reading its reply ends only its own
     connection: the write then fails with EPIPE (caught below) instead
     of raising SIGPIPE, which would kill the server. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t = create ~dir () in
  ignore (scan t);
  if Sys.file_exists socket then Sys.remove socket;
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cleanup () =
    (try Unix.close srv with Unix.Unix_error _ -> ());
    try Sys.remove socket with Sys_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Unix.bind srv (Unix.ADDR_UNIX socket);
  Unix.listen srv 16;
  let served = ref 0 in
  let stop = ref false in
  while not !stop do
    (* Wake up at least every scan_interval so the fold keeps pace with
       the campaign even when nobody is asking. *)
    (match Unix.select [ srv ] [] [] scan_interval with
    | [], _, _ -> ignore (scan t)
    | _ :: _, _, _ ->
      let conn, _ = Unix.accept srv in
      Fun.protect
        ~finally:(fun () -> try Unix.close conn with Unix.Unix_error _ -> ())
        (fun () ->
          (* One connection at a time: a silent or half-written client ends
             only its own connection on a timeout (EAGAIN); a read that
             timed out is no request, so [max_requests] does not count it. *)
          Unix.setsockopt_float conn Unix.SO_RCVTIMEO io_timeout;
          Unix.setsockopt_float conn Unix.SO_SNDTIMEO io_timeout;
          try
            let req = read_request conn in
            (* Fold anything new before answering, so every response
               reflects the directory as of this request. *)
            ignore (scan t);
            let reply = handle t req in
            incr served;
            if String.trim req = "shutdown" then stop := true;
            write_all conn reply
          with Unix.Unix_error (Unix.(EPIPE | ECONNRESET | EAGAIN | EWOULDBLOCK), _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    match max_requests with
    | Some m when !served >= m -> stop := true
    | _ -> ()
  done

let request ~socket line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      write_all fd (line ^ "\n");
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
      in
      go ();
      Buffer.contents buf)
