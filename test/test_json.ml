(* The one JSON codec (Bgp_engine.Json_lite): RFC 8259 escaping on both
   sides, the nesting bound, the float rule, and round trips — random
   values print and parse back equal, and every writer's document
   reprints byte-identically through parse + print (the writers already
   emit the canonical compact form). *)

module J = Bgp_engine.Json_lite
module Profile = Bgp_engine.Profile
module Runner = Bgp_netsim.Runner
module Network = Bgp_netsim.Network
module Trace = Bgp_netsim.Trace
module Attribution = Bgp_netsim.Attribution
module Attr_merge = Bgp_netsim.Attr_merge
module Telemetry = Bgp_netsim.Telemetry
module Fi = Bgp_netsim.Fault_injector
module Serve = Bgp_experiments.Serve
module Chaos = Bgp_experiments.Chaos
module Config = Bgp_proto.Config
module Path = Bgp_proto.Path
module Types = Bgp_proto.Types
module Degree_dist = Bgp_topology.Degree_dist

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let parse_error s =
  match J.parse s with
  | _ -> Alcotest.failf "%S... parsed" (String.sub s 0 (min 40 (String.length s)))
  | exception J.Bad m -> m

(* No raw byte below 0x20 may appear in a printed document. *)
let strict_bytes s = String.for_all (fun c -> Char.code c >= 0x20) s

let reprints msg doc =
  checks (msg ^ " reprints byte-identically") doc (J.to_string (J.parse doc))

(* --- Escaping ---------------------------------------------------------------- *)

let test_escape () =
  checks "plain" "\"abc\"" (J.escape "abc");
  checks "quote and backslash" "\"a\\\"b\\\\c\"" (J.escape "a\"b\\c");
  checks "newline keeps its short form" "\"a\\nb\"" (J.escape "a\nb");
  checks "tab" "\"a\\u0009b\"" (J.escape "a\tb");
  checks "every other control byte" "\"\\u0000\\u001f\\u000d\"" (J.escape "\000\031\r");
  checks "high bytes pass through" "\"\xc3\xa9\xff\"" (J.escape "\xc3\xa9\xff");
  checks "empty" "\"\"" (J.escape "");
  checks "printer uses the same escaper" "{\"k\\u0009\":\"v\\u0001\"}"
    (J.to_string (J.Obj [ ("k\t", J.Str "v\001") ]))

let test_unescape () =
  let str s = J.str (J.parse s) in
  checks "tab" "a\tb" (str {|"a\tb"|});
  checks "all short escapes" "\"\\/\b\012\n\r\t" (str {|"\"\\\/\b\f\n\r\t"|});
  checks "\\u0041" "A" (str {|"\u0041"|});
  checks "\\u00e9 to UTF-8" "\xc3\xa9" (str {|"\u00e9"|});
  checks "\\u20AC to UTF-8" "\xe2\x82\xac" (str {|"\u20AC"|});
  checks "surrogate pair" "\xf0\x9f\x98\x80" (str {|"\ud83d\ude00"|});
  checks "escape after plain run" "xy\nz" (str {|"xy\nz"|});
  checks "bad escape located" "bad escape \\q at 2" (parse_error {|"a\q"|});
  checks "bad \\u located" "bad \\u escape \"12x4\" at 2" (parse_error {|"a\u12x4"|});
  checks "truncated \\u" "truncated \\u escape at 2" (parse_error {|"a\u12|});
  checks "unterminated" "unterminated string at 4" (parse_error {|"abc|})

(* --- Nesting bound ----------------------------------------------------------- *)

let nested n = String.make n '[' ^ String.make n ']'

let test_depth () =
  (match J.parse (nested J.max_depth) with
  | _ -> ()
  | exception J.Bad m -> Alcotest.failf "max_depth levels rejected: %s" m);
  checks "one level too deep"
    (Printf.sprintf "nesting deeper than %d at %d" J.max_depth J.max_depth)
    (parse_error (nested (J.max_depth + 1)));
  (* A million levels (2 MB) stops at the bound instead of recursing. *)
  let t0 = Sys.time () in
  let m = parse_error (nested 1_000_000) in
  checks "1M-deep input is rejected at the bound"
    (Printf.sprintf "nesting deeper than %d at %d" J.max_depth J.max_depth)
    m;
  checkb "and quickly" true (Sys.time () -. t0 < 1.0);
  checks "objects count too" (Printf.sprintf "nesting deeper than %d at %d" J.max_depth
    (5 * J.max_depth))
    (parse_error (String.concat "" (List.init (J.max_depth + 1) (fun _ -> {|{"a":|}))))

(* --- Floats and misc ---------------------------------------------------------- *)

let test_floats () =
  checks "whole" "3.0" (J.float_lit 3.0);
  checks "negative zero" "-0.0" (J.float_lit (-0.0));
  checks "fraction" "0.10000000000000001" (J.float_lit 0.1);
  checks "whole numbers from 1e15 up use %.17g" "1000000000000000" (J.float_lit 1e15);
  checks "exponent form" "1e+17" (J.float_lit 1e17);
  List.iter
    (fun v ->
      checkb (J.float_lit v ^ " reparses exactly") true (J.float (J.of_float v) = v))
    [ 0.1; 1.0 /. 3.0; 6.3364822414605557; 1e-300; 5e-324; 1.7976931348623157e308; -2.5 ];
  checks "trailing garbage located" "trailing garbage at 3" (parse_error "{} x");
  checks "compact object" {|{"a":[1,2.5,true,null],"b":{}}|}
    (J.to_string
       (J.Obj
          [
            ("a", J.Arr [ J.of_int 1; J.of_float 2.5; J.Bool true; J.Null ]);
            ("b", J.Obj []);
          ]))

(* --- Random values round-trip -------------------------------------------------- *)

let gen_bytes = QCheck.Gen.(string_size ~gen:char (0 -- 12))

let gen_float =
  QCheck.Gen.(
    oneof
      [
        map (fun f -> if Float.is_finite f then f else 0.0) float;
        map float_of_int small_signed_int;
        float_range (-1e3) 1e3;
      ])

let gen_value =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 map (fun s -> J.Str s) gen_bytes;
                 map J.of_int int;
                 map J.of_float gen_float;
                 map (fun b -> J.Bool b) bool;
                 return J.Null;
               ]
           in
           if n <= 1 then leaf
           else
             frequency
               [
                 (1, leaf);
                 (2, map (fun l -> J.Arr l) (list_size (0 -- 5) (self (n / 3))));
                 ( 2,
                   map
                     (fun l -> J.Obj l)
                     (list_size (0 -- 5) (pair gen_bytes (self (n / 3)))) );
               ]))

let prop_value_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse (to_string v) = v, arbitrary-byte strings"
    (QCheck.make ~print:J.to_string gen_value)
    (fun v ->
      let s = J.to_string v in
      strict_bytes s && J.parse s = v)

(* Random sidecars: arbitrary-byte violation names and any finite float. *)
let gen_sidecar =
  QCheck.Gen.(
    let comp =
      map
        (fun (q, p, m, g) ->
          { Attribution.queueing = q; processing = p; mrai_hold = m; propagation = g })
        (quad gen_float gen_float gen_float gen_float)
    in
    map
      (fun ( (seed, t_fail, delay, complete),
             (events, totals, aggregate),
             by_router,
             (dests, violations) ) ->
        {
          Attribution.sc_seed = seed;
          sc_t_fail = t_fail;
          sc_delay = delay;
          sc_complete = complete;
          sc_events = events;
          sc_totals = totals;
          sc_aggregate = aggregate;
          sc_by_router = by_router;
          sc_dests = dests;
          sc_violations = violations;
        })
      (quad
         (quad int gen_float gen_float bool)
         (triple nat comp comp)
         (list_size (0 -- 4) (pair nat comp))
         (pair
            (list_size (0 -- 4)
               (map
                  (fun (d, t, c, p) ->
                    { Attribution.sd_dest = d; sd_tail = t; sd_complete = c; sd_parts = p })
                  (quad nat gen_float bool comp)))
            (list_size (0 -- 3) gen_bytes))))

let prop_sidecar_roundtrip =
  QCheck.Test.make ~count:300 ~name:"sidecar document reprints and reads back equal"
    (QCheck.make ~print:Attribution.sidecar_to_json gen_sidecar)
    (fun sc ->
      let doc = Attribution.sidecar_to_json sc in
      strict_bytes doc
      && J.to_string (J.parse doc) = doc
      && Attribution.sidecar_of_json doc = Ok sc)

(* Random trace events, fault labels of arbitrary bytes included. *)
let gen_event paths =
  QCheck.Gen.(
    let update =
      oneof
        [
          map (fun d -> Types.Withdraw d) nat;
          map
            (fun (d, hops) -> Types.Advertise { dest = d; path = Path.of_list paths hops })
            (pair nat (list_size (0 -- 5) nat));
        ]
    in
    let ids = pair nat gen_float in
    oneof
      [
        map
          (fun ((id, time), (src, dst, cause), update) ->
            Trace.Update_sent { id; time; src; dst; update; cause })
          (triple ids (triple nat nat int) update);
        map
          (fun ((id, time), (src, dst, cause), update) ->
            Trace.Update_delivered { id; time; src; dst; update; cause })
          (triple ids (triple nat nat int) update);
        map
          (fun ((id, time), (router, src, dest), (enqueued, started, cause)) ->
            Trace.Processed { id; time; router; src; dest; enqueued; started; cause })
          (triple ids (triple nat nat int) (triple gen_float gen_float int));
        map
          (fun ((id, time), (router, peer, dest), (ready, cause)) ->
            Trace.Mrai_flush { id; time; router; peer; dest; ready; cause })
          (triple ids (triple nat nat nat) (pair gen_float int));
        map
          (fun ((id, time), router) -> Trace.Router_failed { id; time; router })
          (pair ids nat);
        map
          (fun ((id, time), (router, peer, cause)) ->
            Trace.Session_down { id; time; router; peer; cause })
          (pair ids (triple nat nat int));
        map
          (fun ((id, time), (router, peer, cause)) ->
            Trace.Session_up { id; time; router; peer; cause })
          (pair ids (triple nat nat int));
        map
          (fun ((id, time), (label, router, cause)) ->
            Trace.Fault { id; time; label; router; cause })
          (pair ids (triple gen_bytes nat int));
      ])

let prop_event_roundtrip =
  let paths = Path.create_table () in
  QCheck.Test.make ~count:500 ~name:"trace event line reprints and reads back equal"
    (QCheck.make ~print:Trace.event_to_json (gen_event paths))
    (fun e ->
      let line = Trace.event_to_json e in
      strict_bytes line
      && J.to_string (J.parse line) = line
      &&
      match Trace.event_of_json ~paths line with
      | Ok e' -> Trace.event_to_json e' = line
      | Error _ -> false)

(* --- Every writer's document, from seeded runs ---------------------------------- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "bgpsim_json_%d_%d" (Unix.getpid ()) !n)
    in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    dir

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let traced_scenario seed =
  let net =
    {
      (Network.config_default Config.(with_mrai (Static 1.25) default)) with
      Network.telemetry = Some (Telemetry.config ~probe_interval:0.5 ());
    }
  in
  Runner.scenario ~net ~failure:(Runner.Fraction 0.1) ~seed
    (Runner.Flat { spec = Degree_dist.skewed_70_30; n = 16 })

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* One traced trial per seed: its trace lines and meta line, attribution
   report, sidecar, reference merge, streamed merge, telemetry artifacts,
   fault schedule and serve answers must all be fixed points of
   parse + print. *)
let writer_documents seed =
  let s = traced_scenario seed in
  let trace = Trace.create ~capacity:200_000 () in
  let r =
    Runner.run { s with Runner.net = { s.Runner.net with Network.trace = Some trace } }
  in
  let attr = Option.get r.Runner.attribution in
  let sc = Attribution.sidecar_of ~violations:[ "queue_drain" ] ~seed attr in
  let acc = Attr_merge.create () in
  Attr_merge.add_sidecar acc sc;
  let tele = Option.get r.Runner.report in
  let schedule = Chaos.schedule_for (Chaos.config s) s in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Attribution.write_sidecar (Filename.concat dir "t.seed1.attr.json") sc;
  let serve = Serve.create ~dir () in
  ignore (Serve.scan serve);
  List.map Trace.event_to_json (Trace.events trace)
  @ [
      Trace.meta_to_json { Trace.seed; t_fail = attr.Attribution.t_fail };
      Attribution.to_json attr;
      Attribution.sidecar_to_json sc;
      Attribution.merged_to_json
        (Attribution.merge [ { Attribution.trial_seed = seed; attr } ]);
      Attr_merge.to_json acc;
      String.trim (Telemetry.report_json tele);
      J.to_string (Fi.to_json schedule);
      Serve.handle serve "status";
      Serve.handle serve "report";
      Serve.handle serve "bogus";
    ]
  @ lines (Telemetry.series_jsonl tele)
  @ lines (Telemetry.counters_jsonl tele)

let prop_writers_reprint =
  QCheck.Test.make ~count:4
    ~name:"every writer's document is a fixed point of parse + print"
    (QCheck.make ~print:string_of_int QCheck.Gen.(1 -- 10_000))
    (fun seed ->
      List.for_all
        (fun doc -> strict_bytes doc && J.to_string (J.parse doc) = doc)
        (writer_documents seed))

let test_profile_reprint () =
  Profile.start ();
  Profile.within Profile.Warmup (fun () ->
      Profile.enter Profile.Compute ~shard:0;
      Profile.leave ());
  Profile.counter_max "test.high_water" 2;
  let prof =
    match Profile.stop () with
    | Some r -> Profile.to_json r
    | None -> Alcotest.fail "no report"
  in
  reprints "bgp-prof/2" prof

let () =
  let qc = QCheck_alcotest.to_alcotest ~long:false ~rand:(Random.State.make [| 15 |]) in
  Alcotest.run "json"
    [
      ( "codec",
        [
          Alcotest.test_case "escape per RFC 8259" `Quick test_escape;
          Alcotest.test_case "unescape per RFC 8259" `Quick test_unescape;
          Alcotest.test_case "nesting bound" `Quick test_depth;
          Alcotest.test_case "float rule" `Quick test_floats;
        ] );
      ( "round-trip",
        [
          qc prop_value_roundtrip;
          qc prop_sidecar_roundtrip;
          qc prop_event_roundtrip;
          qc prop_writers_reprint;
          Alcotest.test_case "profile report" `Quick test_profile_reprint;
        ] );
    ]
