(* The chaos campaign's own contract.

   Four properties anchor the fault layer: (1) a chaotic trial is a pure
   function of its seed — same seed, byte-identical finalized trace
   file, whatever the job count; (2) the schedule generator only emits
   well-formed schedules (sorted, post-failure onsets, partitions that
   heal) and its shrinker preserves well-formedness, for arbitrary
   seeds; (3) a small campaign runs all-green with a jobs-invariant
   fingerprint, and the seeded-violation self-test drives the ddmin
   minimizer down to a tiny reproducer; (4) reading a trace file back
   never raises — empty, truncated and malformed files are clean
   [Error]s naming the file and line. *)

module Pool = Bgp_engine.Pool
module Rng = Bgp_engine.Rng
module Runner = Bgp_netsim.Runner
module Network = Bgp_netsim.Network
module Trace = Bgp_netsim.Trace
module Attribution = Bgp_netsim.Attribution
module Fi = Bgp_netsim.Fault_injector
module Chaos = Bgp_experiments.Chaos
module Config = Bgp_proto.Config
module Path = Bgp_proto.Path
module Degree_dist = Bgp_topology.Degree_dist
module Topology = Bgp_topology.Topology

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

(* The one scenario family under chaos everywhere below: flat 70-30,
   15% contiguous failure — small enough to run dozens of trials, big
   enough that every fault shape finds live links to hit. *)
let base =
  Runner.scenario
    ~net:(Network.config_default Config.(with_mrai (Static 1.25) default))
    ~failure:(Runner.Fraction 0.15) ~seed:11
    (Runner.Flat { spec = Degree_dist.skewed_70_30; n = 24 })

(* --- (1) replay bit-identity: jobs=4 == jobs=1, byte for byte --------- *)

let finalized_traces ~jobs ~trials dir =
  let cfg = Chaos.config ~horizon:4.0 base in
  let pairs =
    Runner.traced ~capacity:300_000
      ~spill_base:(Filename.concat dir "t.jsonl")
      base ~trials
  in
  (* each trial gets the fault schedule its own seed derives *)
  let pairs =
    List.map
      (fun (s, tr) -> ({ s with Runner.faults = Some (Chaos.schedule_for cfg s) }, tr))
      pairs
  in
  let results = Pool.map ~jobs (fun (s, _) -> Runner.run s) pairs in
  List.map2
    (fun (s, tr) (r : Runner.result) ->
      let attr =
        match r.Runner.attribution with
        | Some a -> a
        | None -> Alcotest.fail "chaotic traced run produced no attribution"
      in
      Trace.finalize tr
        ~meta:{ Trace.seed = s.Runner.seed; t_fail = attr.Attribution.t_fail };
      match Trace.spill_path tr with
      | Some p -> (s.Runner.seed, slurp p)
      | None -> Alcotest.fail "traced trial has no spill file")
    pairs results

let test_replay_bit_identity () =
  let trials = 3 in
  let seq = finalized_traces ~jobs:1 ~trials (temp_dir "bgpsim_chaos_seq") in
  let par = finalized_traces ~jobs:4 ~trials (temp_dir "bgpsim_chaos_par") in
  checki "trial count" trials (List.length par);
  List.iter2
    (fun (seed_a, bytes_a) (seed_b, bytes_b) ->
      checki "same seed" seed_a seed_b;
      checkb
        (Printf.sprintf "seed %d produced events" seed_a)
        true
        (String.length bytes_a > 0);
      checks
        (Printf.sprintf "seed %d: finalized trace bytes identical (jobs 1 vs 4)"
           seed_a)
        (Digest.to_hex (Digest.string bytes_a))
        (Digest.to_hex (Digest.string bytes_b)))
    seq par

(* --- (2) generator and shrinker well-formedness, for any seed --------- *)

let topo = Runner.topology_of base
let failure = Runner.failure_of base topo
let n_routers = Topology.num_routers topo
let horizon = 4.0

let schedule_of_seed ?(max_events = 5) seed =
  Fi.generate ~rng:(Rng.create seed) ~topo ~failure ~max_events ~horizon ()

let pp_schedule sched =
  String.concat "; " (List.map (Fmt.to_to_string Fi.pp_event) sched)

let arb_seed = QCheck.int_range 1 100_000

let prop_generate_valid =
  QCheck.Test.make ~count:200 ~name:"generated schedules validate"
    arb_seed
    (fun seed ->
      let sched = schedule_of_seed seed in
      match Fi.validate ~n:n_routers ~horizon sched with
      | Ok () -> sched <> []
      | Error m -> QCheck.Test.fail_reportf "seed %d: %s: %s" seed m (pp_schedule sched))

let prop_no_event_predates_failure =
  QCheck.Test.make ~count:200 ~name:"no event predates t_fail" arb_seed
    (fun seed -> List.for_all (fun e -> e.Fi.at >= 0.0) (schedule_of_seed seed))

let prop_partitions_heal =
  QCheck.Test.make ~count:200 ~name:"partitions always heal within the horizon"
    arb_seed
    (fun seed ->
      List.for_all
        (fun e ->
          match e.Fi.fault with
          | Fi.Partition { heal_after; _ } ->
            heal_after > 0.0 && e.Fi.at +. heal_after <= horizon
          | _ -> true)
        (schedule_of_seed seed))

let prop_generate_pure =
  QCheck.Test.make ~count:50 ~name:"same seed, same schedule" arb_seed
    (fun seed -> schedule_of_seed seed = schedule_of_seed seed)

let prop_shrink_valid =
  QCheck.Test.make ~count:100 ~name:"every shrink of a valid schedule is valid"
    arb_seed
    (fun seed ->
      let sched = schedule_of_seed ~max_events:4 seed in
      List.for_all
        (fun cand ->
          match Fi.validate ~n:n_routers ~horizon cand with
          | Ok () -> true
          | Error m ->
            QCheck.Test.fail_reportf "seed %d: shrink invalid (%s): %s" seed m
              (pp_schedule cand))
        (Fi.shrink sched))

let prop_shrink_shrinks =
  (* shrink candidates never grow, and dropping events strictly shrinks —
     the minimizer's termination argument *)
  QCheck.Test.make ~count:100 ~name:"shrink candidates never grow" arb_seed
    (fun seed ->
      let sched = schedule_of_seed seed in
      List.for_all
        (fun cand -> List.length cand <= List.length sched)
        (Fi.shrink sched))

(* --- (3) campaign: all green, jobs-invariant, minimizer works --------- *)

let test_campaign_green () =
  let cfg = Chaos.config ~trials:6 ~horizon:3.0 ~replay_every:3 base in
  let c1 = Chaos.run_campaign ~jobs:1 cfg in
  let c4 = Chaos.run_campaign ~jobs:4 cfg in
  checki "all trials ran" 6 (List.length c1.Chaos.outcomes);
  (match Chaos.violating c1 with
  | [] -> ()
  | o :: _ ->
    let v = List.hd o.Chaos.violations in
    Alcotest.failf "trial seed %d violated %s: %s" o.Chaos.trial_seed
      v.Chaos.invariant v.Chaos.detail);
  checks "fingerprint independent of jobs" c1.Chaos.fingerprint c4.Chaos.fingerprint;
  checkb "several fault kinds exercised" true (List.length c1.Chaos.kinds_seen >= 2);
  checkb "no reproducer on a green campaign" true (c1.Chaos.minimized = None);
  (* faults actually bite: some trial loses messages in flight *)
  checkb "some trial lost messages" true
    (List.exists (fun o -> o.Chaos.lost > 0) c1.Chaos.outcomes)

let test_minimizer_self_test () =
  (* Declare gray-link schedules violating (the CI self-test hook): the
     campaign must find one, ddmin+shrink it to <= 3 events, and the
     minimal schedule must still contain the trigger. *)
  let cfg = Chaos.config ~trials:12 ~horizon:3.0 ~seed_violation:true base in
  let campaign = Chaos.run_campaign ~jobs:4 cfg in
  checkb "seeded violation found" true (Chaos.violating campaign <> []);
  match campaign.Chaos.minimized with
  | None -> Alcotest.fail "seeded violation was not minimized"
  | Some m ->
    checkb
      (Printf.sprintf "minimized to <= 3 events (got %d)"
         (List.length m.Chaos.m_schedule))
      true
      (List.length m.Chaos.m_schedule <= 3);
    checkb "minimal schedule no larger than the original" true
      (List.length m.Chaos.m_schedule <= m.Chaos.m_original_events);
    checkb "still violates seeded_violation" true
      (List.mem "seeded_violation" m.Chaos.m_invariants);
    checkb "the gray-link trigger survived minimization" true
      (List.mem "gray_link" (Fi.kinds m.Chaos.m_schedule));
    (* the artifact embeds the reproducer *)
    let json = Chaos.artifact_to_json cfg campaign in
    checks "artifact reprints byte-identically" json
      Bgp_engine.Json_lite.(to_string (parse json));
    checkb "artifact carries schema tag" true (contains json "bgp-chaos/1");
    checkb "artifact carries the minimized schedule" true
      (contains json "\"minimized\"" && contains json "gray_link")

(* --- (4) Trace.read_file never raises ---------------------------------- *)

let write_text path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* A real finalized trace file to carve test inputs from. *)
let finalized_file () =
  let dir = temp_dir "bgpsim_readfile" in
  match finalized_traces ~jobs:1 ~trials:1 dir with
  | [ (_, bytes) ] -> (dir, bytes)
  | _ -> Alcotest.fail "expected exactly one trial"

let test_read_file_errors () =
  let paths = Path.create_table () in
  let dir, bytes = finalized_file () in
  let lines = String.split_on_char '\n' (String.trim bytes) in
  checkb "real file has several lines" true (List.length lines > 2);
  (* the untouched file reads back fine, meta and all *)
  let whole = Filename.concat dir "whole.jsonl" in
  write_text whole bytes;
  (match Trace.read_file ~paths whole with
  | Ok (Some _, events) -> checkb "events read back" true (events <> [])
  | Ok (None, _) -> Alcotest.fail "finalized file lost its meta line"
  | Error m -> Alcotest.failf "finalized file must read back: %s" m);
  (* missing file: Error, not Sys_error *)
  (match Trace.read_file ~paths (Filename.concat dir "no-such-file.jsonl") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must be Error");
  (* empty file *)
  let empty = Filename.concat dir "empty.jsonl" in
  write_text empty "";
  (match Trace.read_file ~paths empty with
  | Error m ->
    checkb "error names the file" true (contains m empty);
    checkb "error says empty" true (contains m "empty")
  | Ok _ -> Alcotest.fail "empty file must be Error");
  (* truncated mid-line: first event line intact, second cut in half *)
  let first, second =
    match lines with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "unreachable"
  in
  let trunc = Filename.concat dir "trunc.jsonl" in
  write_text trunc (first ^ "\n" ^ String.sub second 0 (String.length second / 2));
  (match Trace.read_file ~paths trunc with
  | Error m ->
    checkb "error names the file" true (contains m trunc);
    checkb "error names line 2" true (contains m ":2");
    checkb "error says truncated or malformed" true (contains m "truncated")
  | Ok _ -> Alcotest.fail "truncated file must be Error");
  (* garbage instead of JSON *)
  let garbage = Filename.concat dir "garbage.jsonl" in
  write_text garbage (first ^ "\nnot json at all\n");
  (match Trace.read_file ~paths garbage with
  | Error m -> checkb "error names line 2" true (contains m ":2")
  | Ok _ -> Alcotest.fail "garbage line must be Error");
  (* an AS hop out of range: Error, not Invalid_argument *)
  let bad_hop = Filename.concat dir "bad_hop.jsonl" in
  write_text bad_hop
    (first
   ^ "\n{\"type\":\"update_sent\",\"id\":1,\"time\":1.0,\"src\":0,\"dst\":1,\
      \"update\":{\"kind\":\"advertise\",\"dest\":9,\"path\":[-3,9]},\"cause\":-1}\n");
  (match Trace.read_file ~paths bad_hop with
  | Error m -> checkb "error names line 2" true (contains m ":2")
  | Ok _ -> Alcotest.fail "an out-of-range AS hop must be Error");
  (* a bare, never-finalized spill (no meta line) still reads back *)
  let bare = Filename.concat dir "bare.jsonl" in
  let event_lines =
    List.filter (fun l -> not (contains l "\"type\":\"meta\"")) lines
  in
  write_text bare (String.concat "\n" event_lines ^ "\n");
  match Trace.read_file ~paths bare with
  | Ok (None, events) ->
    checki "bare spill keeps every event" (List.length event_lines)
      (List.length events)
  | Ok (Some _, _) -> Alcotest.fail "bare spill has no meta line"
  | Error m -> Alcotest.failf "bare spill must read back: %s" m

(* --- (5) the battery's trace half on hand-built traces ------------------ *)

(* A causally clean post-failure story: an injected fault root, the
   session drop it causes, the peer-down work, the withdrawal it sends
   and that withdrawal's delivery — all after [t_fail] = 1. *)
let root = Network.first_root_id

let clean_events =
  [
    Trace.Update_sent
      { id = 3; time = 0.5; src = 0; dst = 1; update = Bgp_proto.Types.Withdraw 4; cause = Trace.no_cause };
    Trace.Update_delivered
      { id = 4; time = 0.6; src = 0; dst = 1; update = Bgp_proto.Types.Withdraw 4; cause = 3 };
    Trace.Fault { id = root; time = 1.0; label = "partition"; router = 2; cause = Trace.no_cause };
    Trace.Session_down { id = 10; time = 1.1; router = 2; peer = 3; cause = root };
    Trace.Processed
      { id = 12; time = 1.2; router = 2; src = 3; dest = -1; enqueued = 1.1; started = 1.15; cause = 10 };
    Trace.Update_sent
      { id = 22; time = 1.2; src = 2; dst = 5; update = Bgp_proto.Types.Withdraw 7; cause = 12 };
    Trace.Update_delivered
      { id = 25; time = 1.3; src = 2; dst = 5; update = Bgp_proto.Types.Withdraw 7; cause = 22 };
  ]

let trace_of ?(capacity = 100) events =
  let t = Trace.create ~capacity () in
  List.iter (Trace.record t) events;
  t

let tripped events ?capacity ~lost () =
  List.map
    (fun v -> v.Chaos.invariant)
    (Chaos.check_trace ~t_fail:1.0 ~lost (trace_of ?capacity events))

let names = Alcotest.(list string)

let test_check_trace_clean () =
  Alcotest.check names "a clean trace trips nothing" [] (tripped clean_events ~lost:(Some 0) ())

let test_check_trace_cause_order () =
  (* A same-time batch appended in reverse id order — what a broken
     flush sort produces: #22 names #12 as its cause but lands first. *)
  let reversed =
    List.concat_map
      (function
        | Trace.Processed { id = 12; _ } -> []
        | Trace.Update_sent { id = 22; _ } as sent ->
          [ sent; List.find (function Trace.Processed _ -> true | _ -> false) clean_events ]
        | e -> [ e ])
      clean_events
  in
  Alcotest.check names "reversed same-time batch" [ "cause_order" ]
    (tripped reversed ~lost:(Some 0) ())

let test_check_trace_orphan_root () =
  let orphan =
    Trace.Processed
      { id = 30; time = 1.4; router = 6; src = 2; dest = 7; enqueued = 1.3; started = 1.35;
        cause = Trace.no_cause }
  in
  Alcotest.check names "post-failure root that is no injection" [ "orphan_root" ]
    (tripped (clean_events @ [ orphan ]) ~lost:(Some 0) ())

let test_check_trace_conservation () =
  let unmatched =
    Trace.Update_sent
      { id = 32; time = 1.4; src = 2; dst = 6; update = Bgp_proto.Types.Withdraw 7; cause = 12 }
  in
  Alcotest.check names "a send neither delivered nor lost" [ "conservation" ]
    (tripped (clean_events @ [ unmatched ]) ~lost:(Some 0) ());
  Alcotest.check names "the same send, accounted lost" []
    (tripped (clean_events @ [ unmatched ]) ~lost:(Some 1) ());
  Alcotest.check names "no conservation check before the run drained" []
    (tripped (clean_events @ [ unmatched ]) ~lost:None ())

(* Thousands of router ids, so the seen-id bitset grows past its first
   512 ids several times, then one event naming an id in that range that
   was never recorded.  The minor heap is first filled with dead all-ones
   blocks, so a grown bitset that kept stale bytes would see the id. *)
let test_check_trace_cause_order_grown () =
  let n = 5_000 in
  let processed id time cause =
    Trace.Processed
      { id; time; router = id mod 40; src = 0; dest = 1; enqueued = time; started = time; cause }
  in
  let chain =
    List.init n (fun i ->
        processed (2 * i) (float_of_int i *. 1e-4) (if i = 0 then Trace.no_cause else 2 * (i - 1)))
  in
  let check events =
    let t = trace_of ~capacity:(n + 1) events in
    for _ = 0 to (Gc.get ()).Gc.minor_heap_size / 200 do
      ignore (Sys.opaque_identity (Bytes.make 2_000 '\255'))
    done;
    Gc.minor ();
    List.map (fun v -> v.Chaos.invariant) (Chaos.check_trace ~t_fail:1.0 ~lost:(Some 0) t)
  in
  Alcotest.check names "a chain over grown bitsets is clean" [] (check chain);
  Alcotest.check names "an unseen id inside the grown range" [ "cause_order" ]
    (check (chain @ [ processed (2 * n) 0.6 4_001 ]))

let test_check_trace_capacity () =
  Alcotest.check names "a ring that dropped events" [ "trace_capacity" ]
    (tripped clean_events ~capacity:4 ~lost:(Some 0) ())

let () =
  Alcotest.run "chaos"
    [
      ( "replay determinism",
        [
          Alcotest.test_case "same seed => byte-identical trace, jobs 1 vs 4"
            `Quick test_replay_bit_identity;
        ] );
      ( "schedule generator properties",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_generate_valid;
            prop_no_event_predates_failure;
            prop_partitions_heal;
            prop_generate_pure;
            prop_shrink_valid;
            prop_shrink_shrinks;
          ] );
      ( "campaign",
        [
          Alcotest.test_case "small campaign all green, jobs-invariant" `Quick
            test_campaign_green;
          Alcotest.test_case "seeded violation minimized to <= 3 events" `Quick
            test_minimizer_self_test;
        ] );
      ( "trace battery",
        [
          Alcotest.test_case "clean trace trips nothing" `Quick test_check_trace_clean;
          Alcotest.test_case "cause_order" `Quick test_check_trace_cause_order;
          Alcotest.test_case "cause_order past the first bitset" `Quick
            test_check_trace_cause_order_grown;
          Alcotest.test_case "orphan_root" `Quick test_check_trace_orphan_root;
          Alcotest.test_case "conservation" `Quick test_check_trace_conservation;
          Alcotest.test_case "trace_capacity" `Quick test_check_trace_capacity;
        ] );
      ( "trace file robustness",
        [
          Alcotest.test_case "read_file: empty/truncated/garbage are clean errors"
            `Quick test_read_file_errors;
        ] );
    ]
