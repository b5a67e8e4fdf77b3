(* The churn workload engine's contract.

   Five properties anchor the sustained-load layer: (1) a churn trial is
   a pure function of its seed — same seed, identical steady-state stats
   whatever the job count, and the sharded engine's measurements are
   invariant across shard counts 1/2/4; (2) the schedule generator only
   emits well-formed schedules (sorted onsets, origin routers of the
   right AS, strict withdraw/announce alternation ending all-announced)
   and its shrinker preserves well-formedness, for arbitrary seeds and
   all three workload shapes; (3) the multi-prefix plan round-trips —
   [origin_as] / [dests_of_as] / [num_dests] agree, and destination
   subsampling restricts the active set without breaking convergence;
   (4) the prefix-sum Erdos-Gallai test agrees with the naive O(n^2)
   reference on arbitrary sequences; (5) the bgp-churn/1 artifact
   round-trips through its hand-rolled JSON and [bgpsim serve] folds it
   into the workload gauges. *)

module Pool = Bgp_engine.Pool
module Rng = Bgp_engine.Rng
module Runner = Bgp_netsim.Runner
module Network = Bgp_netsim.Network
module Churn = Bgp_netsim.Churn
module Delay_hist = Bgp_netsim.Delay_hist
module Churn_report = Bgp_experiments.Churn_report
module Serve = Bgp_experiments.Serve
module Config = Bgp_proto.Config
module Degree_dist = Bgp_topology.Degree_dist
module Topology = Bgp_topology.Topology

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

(* The one scenario family everywhere below: flat 70-30 on 24 routers,
   no failure (pure churn), analytic warm-up — small enough for dozens
   of trials, big enough that schedules spread across many origins. *)
let base_scenario ?sharding seed =
  Runner.scenario
    ~net:(Network.config_default Config.(with_mrai (Static 1.25) default))
    ~failure:(Runner.Fraction 0.0) ~seed ~warmup:Runner.Analytic ?sharding
    (Runner.Flat { spec = Degree_dist.skewed_70_30; n = 24 })

let storm = Churn.Flap_storm { prefixes = 20; flaps = 2; hold = 1.0; spread = 5.0 }

(* Mirror of [bgpsim churn]'s per-trial derivation: plan and schedule are
   pure functions of the trial seed, independent of jobs and shards. *)
let churn_scenario ?sharding ~seed workload =
  let base = base_scenario ?sharding seed in
  let topo = Runner.topology_of base in
  let rng = Rng.create (seed lxor 0x6368726e) in
  let rng_plan = Rng.split rng in
  let rng_churn = Rng.split rng in
  let n_ases = topo.Topology.n_ases in
  let counts = Churn.prefix_counts ~rng:rng_plan ~n_ases ~mean:3.0 ~max_prefixes:64 in
  let bgp = Config.with_prefix_plan counts base.Runner.net.Network.bgp in
  let net = { base.Runner.net with Network.bgp } in
  let schedule = Churn.generate ~rng:rng_churn ~config:bgp ~topo workload in
  { base with Runner.net; churn = Some schedule; churn_window = 0.5 }

let churn_stats (r : Runner.result) =
  match r.Runner.churn with
  | Some s -> s
  | None -> Alcotest.fail "churn run produced no churn stats"

(* Everything the steady-state monitor measures, as one comparable
   string ([%.17g] floats round-trip; the histogram via its JSON). *)
let fingerprint (s : Churn.stats) =
  Printf.sprintf "%d|%.17g|%.17g|%d|%.17g|%.17g|%d|%d|%d|%d|%.17g|%.17g|%.17g|%s"
    s.Churn.ops s.Churn.workload_horizon s.Churn.span s.Churn.updates_processed
    s.Churn.sustained_rate s.Churn.peak_window_rate s.Churn.windows
    s.Churn.queue_high_water s.Churn.disturbed s.Churn.unconverged s.Churn.p50
    s.Churn.p95 s.Churn.p99
    (Bgp_netsim.Json_lite.to_string (Delay_hist.to_json s.Churn.tails))

(* --- (1) determinism battery ------------------------------------------ *)

let test_jobs_invariance () =
  let scenarios = List.init 3 (fun i -> churn_scenario ~seed:(21 + i) storm) in
  let r1 = Pool.map ~jobs:1 Runner.run scenarios in
  let r4 = Pool.map ~jobs:4 Runner.run scenarios in
  List.iteri
    (fun i (a, b) ->
      let sa = churn_stats a and sb = churn_stats b in
      checkb (Printf.sprintf "trial %d converged" i) true a.Runner.converged;
      checki (Printf.sprintf "trial %d unconverged prefixes" i) 0 sa.Churn.unconverged;
      checkb (Printf.sprintf "trial %d did work" i) true (sa.Churn.ops > 0);
      checks
        (Printf.sprintf "trial %d stats identical, jobs 1 vs 4" i)
        (fingerprint sa) (fingerprint sb))
    (List.combine r1 r4)

let test_shard_invariance () =
  let run shards =
    churn_stats (Runner.run (churn_scenario ~sharding:shards ~seed:9 storm))
  in
  let s1 = run 1 and s2 = run 2 and s4 = run 4 in
  checkb "sharded run did work" true (s1.Churn.ops > 0);
  checki "sharded run fully converged" 0 s1.Churn.unconverged;
  checks "stats identical, shards 1 vs 2" (fingerprint s1) (fingerprint s2);
  checks "stats identical, shards 1 vs 4" (fingerprint s1) (fingerprint s4)

let test_sequential_repeatable () =
  let run () = churn_stats (Runner.run (churn_scenario ~seed:17 storm)) in
  checks "same seed, same stats (one shard)" (fingerprint (run ()))
    (fingerprint (run ()))

(* --- (2) generator and shrinker well-formedness ----------------------- *)

(* Schedules below are generated against one fixed (config, topo) pair;
   only the schedule RNG varies with the QCheck seed. *)
let prop_base = base_scenario 11
let prop_topo = Runner.topology_of prop_base
let prop_config =
  let counts =
    Churn.prefix_counts ~rng:(Rng.create 11) ~n_ases:prop_topo.Topology.n_ases
      ~mean:3.0 ~max_prefixes:64
  in
  Config.with_prefix_plan counts prop_base.Runner.net.Network.bgp

let workload_of_seed seed =
  match seed mod 3 with
  | 0 -> Churn.Poisson { rate = 30.0; duration = 4.0; prefixes = 12 }
  | 1 -> Churn.Flap_storm { prefixes = 12; flaps = 2; hold = 0.5; spread = 2.0 }
  | _ -> Churn.Staged_failover { stages = 3; gap = 2.0; prefixes = 12 }

let schedule_of_seed seed =
  Churn.generate ~rng:(Rng.create seed) ~config:prop_config ~topo:prop_topo
    (workload_of_seed seed)

let pp_schedule sched =
  String.concat "; " (List.map (Fmt.to_to_string Churn.pp_event) sched)

let arb_seed = QCheck.int_range 1 100_000

let prop_generate_valid =
  QCheck.Test.make ~count:150 ~name:"generated schedules validate" arb_seed
    (fun seed ->
      let sched = schedule_of_seed seed in
      match
        Churn.validate ~config:prop_config ~topo:prop_topo
          ~horizon:(Churn.horizon sched) sched
      with
      | Ok () -> sched <> []
      | Error m -> QCheck.Test.fail_reportf "seed %d: %s: %s" seed m (pp_schedule sched))

let prop_generate_pure =
  QCheck.Test.make ~count:50 ~name:"same seed, same schedule" arb_seed
    (fun seed -> schedule_of_seed seed = schedule_of_seed seed)

let prop_ends_announced =
  (* the alternation invariant validate enforces, checked directly: the
     last op on every (router, dest) re-announces *)
  QCheck.Test.make ~count:150 ~name:"every touched prefix ends announced" arb_seed
    (fun seed ->
      let last = Hashtbl.create 64 in
      List.iter
        (fun e -> Hashtbl.replace last (e.Churn.router, e.Churn.dest) e.Churn.op)
        (schedule_of_seed seed);
      Hashtbl.fold (fun _ op acc -> acc && op = Churn.Announce) last true)

let prop_shrink_valid =
  QCheck.Test.make ~count:80 ~name:"every shrink of a valid schedule is valid"
    arb_seed
    (fun seed ->
      let sched = schedule_of_seed seed in
      List.for_all
        (fun cand ->
          match
            Churn.validate ~config:prop_config ~topo:prop_topo
              ~horizon:(Churn.horizon sched) cand
          with
          | Ok () -> true
          | Error m ->
            QCheck.Test.fail_reportf "seed %d: shrink invalid (%s): %s" seed m
              (pp_schedule cand))
        (Churn.shrink sched))

let prop_shrink_shrinks =
  QCheck.Test.make ~count:80 ~name:"shrink candidates never grow" arb_seed
    (fun seed ->
      let sched = schedule_of_seed seed in
      List.for_all
        (fun cand ->
          List.length cand <= List.length sched
          && Churn.horizon cand <= Churn.horizon sched)
        (Churn.shrink sched))

(* --- (3) multi-prefix plan and destination subsampling ---------------- *)

let test_prefix_plan_roundtrip () =
  let counts = [| 3; 1; 5; 2 |] in
  let cfg = Config.with_prefix_plan counts Config.default in
  let n_ases = Array.length counts in
  checki "universe size" 11 (Config.num_dests cfg ~n_ases);
  let seen = Array.make 11 false in
  Array.iteri
    (fun asn c ->
      let dests = Config.dests_of_as cfg ~asn in
      checki (Printf.sprintf "AS %d prefix count" asn) c (List.length dests);
      List.iter
        (fun d ->
          checki (Printf.sprintf "dest %d origin" d) asn (Config.origin_as cfg ~dest:d);
          checkb (Printf.sprintf "dest %d unique" d) false seen.(d);
          seen.(d) <- true)
        dests)
    counts;
  checkb "plan covers the whole universe" true (Array.for_all Fun.id seen);
  (* the default plan is one prefix per AS *)
  checki "default universe = AS count" 7 (Config.num_dests Config.default ~n_ases:7);
  checki "default origin is identity" 4 (Config.origin_as Config.default ~dest:4)

let test_dest_sample_active_set () =
  let cfg = Config.with_dest_sample [| 2; 5 |] Config.default in
  let active = ref [] in
  Config.iter_active_dests cfg ~n_ases:8 (fun d -> active := d :: !active);
  checkb "only sampled dests active" true
    (List.sort compare !active = [ 2; 5 ]
    && Config.dest_active cfg ~dest:2
    && Config.dest_active cfg ~dest:5
    && not (Config.dest_active cfg ~dest:3))

let test_dest_sample_run () =
  (* A sampled one-shot run converges, measures fewer messages than the
     full-universe run, and replays identically for its seed. *)
  let scen k =
    Runner.scenario
      ~net:(Network.config_default Config.(with_mrai (Static 1.25) default))
      ~failure:(Runner.Fraction 0.15) ~seed:7 ?dest_sample:k
      (Runner.Flat { spec = Degree_dist.skewed_70_30; n = 24 })
  in
  let full = Runner.run (scen None) in
  let sampled = Runner.run (scen (Some 6)) in
  let sampled' = Runner.run (scen (Some 6)) in
  checkb "full run converged" true full.Runner.converged;
  checkb "sampled run converged" true sampled.Runner.converged;
  checkb "sampling shrinks the workload" true
    (sampled.Runner.messages < full.Runner.messages);
  checki "sampled run replays identically" sampled.Runner.messages
    sampled'.Runner.messages

(* --- (4) prefix-sum Erdos-Gallai vs the naive reference --------------- *)

let naive_is_graphical degrees =
  let d = Array.copy degrees in
  Array.sort (fun a b -> Int.compare b a) d;
  let n = Array.length d in
  let sum = Array.fold_left ( + ) 0 d in
  if sum mod 2 = 1 then false
  else begin
    let ok = ref true in
    let prefix = ref 0 in
    for k = 1 to n do
      prefix := !prefix + d.(k - 1);
      let rest = ref 0 in
      for i = k to n - 1 do
        rest := !rest + Stdlib.min d.(i) k
      done;
      if !prefix > (k * (k - 1)) + !rest then ok := false
    done;
    !ok
  end

let arb_degrees =
  QCheck.make
    ~print:(fun a ->
      "[" ^ String.concat ";" (List.map string_of_int (Array.to_list a)) ^ "]")
    QCheck.Gen.(
      sized_size (int_range 2 30) (fun n ->
          map Array.of_list (list_size (return n) (int_range 0 n))))

let prop_graphical_matches_naive =
  QCheck.Test.make ~count:500 ~name:"prefix-sum Erdos-Gallai == naive O(n^2)"
    arb_degrees
    (fun d -> Degree_dist.is_graphical d = naive_is_graphical d)

let test_graphical_pins () =
  checkb "K4 degrees" true (Degree_dist.is_graphical [| 3; 3; 3; 3 |]);
  checkb "star K1,3" true (Degree_dist.is_graphical [| 3; 1; 1; 1 |]);
  checkb "odd sum" false (Degree_dist.is_graphical [| 2; 2; 1 |]);
  checkb "degree beyond n-1" false (Degree_dist.is_graphical [| 5; 1; 1; 1 |]);
  checkb "empty sequence" true (Degree_dist.is_graphical [||])

(* --- (5) artifact round-trip and serve folding ------------------------ *)

let small_report () =
  let r = Runner.run (churn_scenario ~seed:31 storm) in
  let s = churn_stats r in
  let report =
    Churn_report.create ~workload:"flap_storm" ~window:0.5 ~prefixes:20
      ~universe:60 ~sampled_fraction:1.0 ~jobs:1 ~shards:1
  in
  Churn_report.add report ~seed:31 ~converged:r.Runner.converged s;
  report

let test_report_roundtrip () =
  let report = small_report () in
  let doc = Churn_report.to_json report in
  checks "report reprints byte-identically" doc Bgp_engine.Json_lite.(to_string (parse doc));
  let dir = temp_dir "bgpsim_churn_report" in
  let path = Filename.concat dir "storm.churn.json" in
  Churn_report.write report path;
  checkb "path recognised" true (Churn_report.is_churn_path path);
  checkb "attr sidecars not mistaken for churn" false
    (Churn_report.is_churn_path "t1.attr.json");
  let s = Churn_report.summary report in
  match Churn_report.read path with
  | Error m -> Alcotest.failf "written report must read back: %s" m
  | Ok s' ->
    checks "workload" s.Churn_report.workload s'.Churn_report.workload;
    checki "trials" s.Churn_report.trials s'.Churn_report.trials;
    checki "ops" s.Churn_report.ops s'.Churn_report.ops;
    checki "queue high water" s.Churn_report.queue_high_water
      s'.Churn_report.queue_high_water;
    checki "unconverged" s.Churn_report.unconverged s'.Churn_report.unconverged;
    checkb "rates round-trip" true
      (s.Churn_report.sustained_rate = s'.Churn_report.sustained_rate
      && s.Churn_report.peak_window_rate = s'.Churn_report.peak_window_rate
      && s.Churn_report.p50 = s'.Churn_report.p50
      && s.Churn_report.p95 = s'.Churn_report.p95
      && s.Churn_report.p99 = s'.Churn_report.p99);
    (* schema gate: anything else is a clean Error *)
    let bogus = Filename.concat dir "bogus.churn.json" in
    let oc = open_out bogus in
    output_string oc "{\"schema\":\"bgp-attr-merge/1\"}";
    close_out oc;
    (match Churn_report.read bogus with
    | Error m -> checkb "error names the schema" true (contains m "schema")
    | Ok _ -> Alcotest.fail "wrong schema must be Error")

let test_serve_folds_churn () =
  let report = small_report () in
  let dir = temp_dir "bgpsim_churn_serve" in
  Churn_report.write report (Filename.concat dir "storm.churn.json");
  let t = Serve.create ~dir () in
  ignore (Serve.scan t);
  let status = Serve.handle t "status" in
  checkb "status names the workload" true (contains status "\"workload\":\"flap_storm\"");
  checkb "status counts the campaign" true (contains status "\"churn_campaigns\":1");
  let metrics = Serve.handle t "metrics" in
  checkb "campaign gauge" true (contains metrics "bgp_churn_campaigns 1");
  checkb "throughput gauge with campaign label" true
    (contains metrics "bgp_churn_sustained_updates_per_second{campaign=\"storm.churn.json\"}");
  checkb "queue gauge" true (contains metrics "bgp_churn_queue_high_water");
  checkb "settle-tail gauge" true (contains metrics "bgp_churn_settle_p99_seconds");
  (* a rescan folds nothing new *)
  checki "rescan is idempotent" 0 (Serve.scan t);
  let status' = Serve.handle t "status" in
  checkb "still one campaign" true (contains status' "\"churn_campaigns\":1")

let () =
  Alcotest.run "churn"
    [
      ( "determinism battery",
        [
          Alcotest.test_case "same seed => same stats, jobs 1 vs 4" `Quick
            test_jobs_invariance;
          Alcotest.test_case "sharded stats invariant across shards 1/2/4" `Quick
            test_shard_invariance;
          Alcotest.test_case "sequential run repeatable" `Quick
            test_sequential_repeatable;
        ] );
      ( "schedule generator properties",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_generate_valid;
            prop_generate_pure;
            prop_ends_announced;
            prop_shrink_valid;
            prop_shrink_shrinks;
          ] );
      ( "multi-prefix plan",
        [
          Alcotest.test_case "plan round-trips origin_as/dests_of_as" `Quick
            test_prefix_plan_roundtrip;
          Alcotest.test_case "dest sample restricts the active set" `Quick
            test_dest_sample_active_set;
          Alcotest.test_case "sampled run converges and replays" `Quick
            test_dest_sample_run;
        ] );
      ( "graphicality",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_graphical_matches_naive ]
        @ [ Alcotest.test_case "pinned sequences" `Quick test_graphical_pins ] );
      ( "artifact and serve",
        [
          Alcotest.test_case "bgp-churn/1 round-trips" `Quick test_report_roundtrip;
          Alcotest.test_case "serve folds churn artifacts into gauges" `Quick
            test_serve_folds_churn;
        ] );
    ]
