(* The live analysis service (Bgp_experiments.Serve), driven in-process
   through the same scan/handle entry points the socket loop uses — plus
   one real fork-and-socket round trip.

   The properties: the folded trial count only ever grows as sidecars
   land in the watched directory; each sidecar is folded exactly once no
   matter how often the directory is rescanned; status carries the chaos
   battery tally and the telemetry counters; a corrupt drop is reported
   once, not once per scan; and the socket protocol answers a real
   client end to end, also behind clients that stall. *)

module Attribution = Bgp_netsim.Attribution
module Serve = Bgp_experiments.Serve
module J = Bgp_engine.Json_lite

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "bgpsim_serve_%d_%d" (Unix.getpid ()) !n)
    in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    dir

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* A tiny synthetic sidecar — the service only folds, it never re-derives,
   so hand-built attributions exercise it fully. *)
let sidecar ?(violations = []) ~seed ~delay () =
  let c q = { Attribution.queueing = q; processing = 0.1; mrai_hold = 0.2; propagation = 0.05 } in
  {
    Attribution.sc_seed = seed;
    sc_t_fail = 100.0;
    sc_delay = delay;
    sc_complete = true;
    sc_events = 10;
    sc_totals = c (delay -. 0.35);
    sc_aggregate = c (2.0 *. delay);
    sc_by_router = [ (1, c 0.3); (2, c 0.4) ];
    sc_dests =
      [
        {
          Attribution.sd_dest = 5;
          sd_tail = delay;
          sd_complete = true;
          sd_parts = c (delay -. 0.35);
        };
      ];
    sc_violations = violations;
  }

let drop dir ~seed ?violations ~delay () =
  Attribution.write_sidecar
    (Filename.concat dir (Printf.sprintf "trial.seed%d.attr.json" seed))
    (sidecar ?violations ~seed ~delay ())

(* Pull a field out of the status JSON via the repo's JSON reader. *)
let status_field t name =
  match J.field_opt (J.obj (J.parse (Serve.handle t "status"))) name with
  | Some v -> v
  | None -> Alcotest.failf "status has no %S member" name

let status_int t name =
  match float_of_string_opt (J.num (status_field t name)) with
  | Some f -> int_of_float f
  | None -> Alcotest.failf "status member %S is not a number" name

let test_monotonic_growth () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t = Serve.create ~dir () in
  checki "empty" 0 (Serve.scan t);
  checki "no trials yet" 0 (Serve.trials t);
  drop dir ~seed:1 ~delay:2.0 ();
  drop dir ~seed:2 ~delay:3.0 ();
  checki "first batch folds" 2 (Serve.scan t);
  checki "trials after first batch" 2 (Serve.trials t);
  checki "rescan folds nothing new" 0 (Serve.scan t);
  checki "still 2" 2 (Serve.trials t);
  drop dir ~seed:3 ~delay:4.0 ();
  checki "second batch folds the new one" 1 (Serve.scan t);
  checki "monotonic" 3 (Serve.trials t);
  checki "status agrees" 3 (status_int t "trials")

let test_status_contents () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t = Serve.create ~dir () in
  drop dir ~seed:1 ~delay:2.0 ();
  drop dir ~seed:2 ~delay:3.0 ~violations:[ "queue_drain"; "converged" ] ();
  ignore (Serve.scan t);
  let s = Serve.handle t "status" in
  checkb "schema" true (contains s "\"schema\":\"bgp-serve-status/2\"");
  checki "trials" 2 (status_int t "trials");
  checkb "battery tally" true (contains s "\"pass\":1,\"fail\":1");
  checkb "violation names" true (contains s "\"queue_drain\":1");
  (* The /2 additions: explicit-unit uptime, process RSS and GC gauges. *)
  checkb "uptime_s gauge" true (contains s "\"uptime_s\":");
  checkb "rss gauge" true (status_int t "rss_bytes" >= 0);
  checkb "gc gauges" true (contains s "\"heap_words\":");
  let s2 = Serve.handle t "status" in
  checkb "request counter grew" true
    (contains s2 "\"requests\":" && not (String.equal s s2))

(* Prometheus text exposition (0.0.4): every sample line's metric must be
   declared by HELP/TYPE lines, and every value must parse as a float. *)
let test_metrics_well_formed () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t = Serve.create ~dir () in
  drop dir ~seed:1 ~delay:2.0 ();
  drop dir ~seed:2 ~delay:3.0 ~violations:[ "queue_drain" ] ();
  ignore (Serve.scan t);
  let body = Serve.handle t "metrics" in
  checkb "ends with a newline" true
    (String.length body > 0 && body.[String.length body - 1] = '\n');
  let declared = Hashtbl.create 16 in
  let samples = ref 0 in
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         if line = "" then ()
         else if String.starts_with ~prefix:"# HELP " line
                 || String.starts_with ~prefix:"# TYPE " line then begin
           let rest = String.sub line 7 (String.length line - 7) in
           let name =
             match String.index_opt rest ' ' with
             | Some i -> String.sub rest 0 i
             | None -> rest
           in
           Hashtbl.replace declared name ()
         end
         else begin
           incr samples;
           let metric =
             match (String.index_opt line '{', String.index_opt line ' ') with
             | Some b, _ -> String.sub line 0 b
             | None, Some sp -> String.sub line 0 sp
             | None, None -> Alcotest.failf "malformed sample line %S" line
           in
           checkb (Printf.sprintf "%s declared by HELP/TYPE" metric) true
             (Hashtbl.mem declared metric);
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "no value in %S" line
           | Some i ->
             let v = String.sub line (i + 1) (String.length line - i - 1) in
             if float_of_string_opt v = None then
               Alcotest.failf "value %S is not a float (line %S)" v line
         end);
  checkb "has samples" true (!samples > 0);
  checkb "campaign counters exposed" true
    (contains body "bgp_serve_trials 2"
    && contains body "bgp_serve_battery_fail_total 1");
  checkb "tail quantiles labeled" true
    (contains body "bgp_serve_tail_seconds{quantile=\"0.95\"}");
  checkb "process gauges exposed" true
    (contains body "bgp_process_resident_memory_bytes"
    && contains body "bgp_gc_heap_words");
  (* The metrics verb is itself counted in status. *)
  checkb "metrics counted in status" true
    (contains (Serve.handle t "status") "\"metrics\":1")

let test_report_and_flame () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t = Serve.create ~dir () in
  drop dir ~seed:1 ~delay:2.0 ();
  ignore (Serve.scan t);
  let r = Serve.handle t "report" in
  checkb "report schema" true (contains r "\"schema\":\"bgp-attr-merge/1\"");
  checkb "report sources" true (contains r "\"sidecars\":1");
  let f = Serve.handle t "flame" in
  checkb "flame has router frames" true (contains f "router_1;queueing ");
  checkb "unknown request errors" true
    (contains (Serve.handle t "bogus") "unknown request")

let test_corrupt_reported_once () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t = Serve.create ~dir () in
  drop dir ~seed:1 ~delay:2.0 ();
  Out_channel.with_open_bin (Filename.concat dir "bad.attr.json") (fun oc ->
      Out_channel.output_string oc "not json");
  checki "only the good one folds" 1 (Serve.scan t);
  checki "rescan does not refold or recount" 0 (Serve.scan t);
  checki "skipped once" 1 (status_int t "skipped");
  checkb "first_error names the file" true
    (contains (Serve.handle t "status") "bad.attr.json")

(* A corrupt sidecar named with a tab: both status and report carry the
   name in first_error, escaped, so each answer stays strict JSON. *)
let test_control_char_in_first_error () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t = Serve.create ~dir () in
  Out_channel.with_open_bin (Filename.concat dir "bad\tname.attr.json") (fun oc ->
      Out_channel.output_string oc "not json");
  ignore (Serve.scan t);
  List.iter
    (fun (query, first_error) ->
      let doc = Serve.handle t query in
      checkb (query ^ ": no raw control byte") true
        (String.for_all (fun c -> Char.code c >= 0x20) doc);
      checkb (query ^ ": first_error keeps its tab") true
        (contains (J.str (first_error (J.obj (J.parse doc)))) "bad\tname"))
    [
      ("status", fun o -> J.field o "first_error");
      ("report", fun o -> J.field (J.obj (J.field o "sources")) "first_error");
    ]

(* Fork a server over [dir] bounded by [max_requests], wait for its
   socket, and run [f socket]; then ask it to shut down, reap it and
   remove [dir]. *)
let with_server ~max_requests dir f =
  let socket = Filename.concat dir "serve.sock" in
  match Unix.fork () with
  | 0 ->
    (* Child: serve until shutdown; _exit skips alcotest's at_exit
       machinery. *)
    (try Serve.run ~max_requests ~scan_interval:0.05 ~socket ~dir () with _ -> ());
    Unix._exit 0
  | pid ->
    Fun.protect
      ~finally:(fun () ->
        (try ignore (Serve.request ~socket "shutdown") with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        rm_rf dir)
    @@ fun () ->
    let rec await n =
      if Sys.file_exists socket then ()
      else if n = 0 then Alcotest.fail "server socket never appeared"
      else begin
        Unix.sleepf 0.05;
        await (n - 1)
      end
    in
    await 100;
    f socket

(* One real socket round trip: hang up on the server once, query it as a
   client, and let the shutdown request stop it. *)
let test_socket_roundtrip () =
  let dir = fresh_dir () in
  drop dir ~seed:1 ~delay:2.0 ();
  with_server ~max_requests:8 dir @@ fun socket ->
  (* A client that sends a request and hangs up without reading the
     reply must not take the server down with it. *)
  let hang_up = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect hang_up (Unix.ADDR_UNIX socket);
  ignore (Unix.write_substring hang_up "report\n" 0 7);
  Unix.close hang_up;
  let s1 = Serve.request ~socket "status" in
  checkb "status over socket" true (contains s1 "\"trials\":1");
  (* A second trial dropped while the server runs is visible to the
     next request — the live part of “live”. *)
  drop dir ~seed:2 ~delay:3.0 ();
  let s2 = Serve.request ~socket "status" in
  checkb "new sidecar visible" true (contains s2 "\"trials\":2");
  let ack = Serve.request ~socket "shutdown" in
  checkb "shutdown acked" true (contains ack "\"shutdown\":true")

(* Open one connection per entry of [sends], write that entry and leave
   the connection open; [f] runs while they are held, and they are closed
   before the server is asked to shut down. *)
let with_stalled socket sends f =
  let fds =
    List.map
      (fun s ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        ignore (Unix.write_substring fd s 0 (String.length s));
        fd)
      sends
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds)
    f

(* A status query with the client's own receive timeout of [bound]
   seconds: a server that never answers fails the test instead of
   hanging it.  Returns the reply and the seconds it took. *)
let timed_status ~bound socket =
  let t0 = Unix.gettimeofday () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO bound;
  Unix.connect fd (Unix.ADDR_UNIX socket);
  ignore (Unix.write_substring fd "status\n" 0 7);
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec read () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      read ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.failf "no status answer within %g s" bound
  in
  read ();
  (Buffer.contents buf, Unix.gettimeofday () -. t0)

(* The loop serves one connection at a time.  A client that connects and
   says nothing, and one that sends half a request line, must each cost
   the others no more than the one-second I/O timeout. *)
let test_stalled_clients () =
  let dir = fresh_dir () in
  drop dir ~seed:1 ~delay:2.0 ();
  with_server ~max_requests:8 dir @@ fun socket ->
  with_stalled socket [ ""; "sta" ] @@ fun () ->
  let bound = 6.0 in
  let reply, took = timed_status ~bound socket in
  checkb "status answered behind two stalled clients" true (contains reply "\"trials\":1");
  checkb (Printf.sprintf "answered within %g s (took %.2f s)" bound took) true (took < bound)

(* A connection dropped on a timeout carried no request: a server bounded
   to one request still answers the next client after it. *)
let test_timeouts_not_counted () =
  let dir = fresh_dir () in
  drop dir ~seed:1 ~delay:2.0 ();
  with_server ~max_requests:1 dir @@ fun socket ->
  with_stalled socket [ "" ] @@ fun () ->
  let reply, _ = timed_status ~bound:6.0 socket in
  checkb "the one counted request is the status query" true (contains reply "\"trials\":1")

let () =
  Alcotest.run "serve"
    [
      ( "fold",
        [
          Alcotest.test_case "trials grow monotonically" `Quick test_monotonic_growth;
          Alcotest.test_case "status carries battery and counters" `Quick
            test_status_contents;
          Alcotest.test_case "report and flame render" `Quick test_report_and_flame;
          Alcotest.test_case "metrics exposition well-formed" `Quick
            test_metrics_well_formed;
          Alcotest.test_case "corrupt sidecar reported once" `Quick
            test_corrupt_reported_once;
          Alcotest.test_case "control byte in first_error" `Quick
            test_control_char_in_first_error;
        ] );
      ( "socket",
        [
          Alcotest.test_case "fork + query + shutdown" `Quick test_socket_roundtrip;
          Alcotest.test_case "stalled clients time out" `Quick test_stalled_clients;
          Alcotest.test_case "timeouts are not requests" `Quick test_timeouts_not_counted;
        ] );
    ]
