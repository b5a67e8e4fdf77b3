(* Golden regression tests: 12 pinned trials (three scenario classes x 4
   seeds) on the one engine at its default one shard.

   The values were first produced by the pre-rewrite simulator (tuple
   ranks, list paths, record-slot scheduler) and must stay bit-identical:
   optimisations are pure representation changes, so any drift in a
   delay, message count or executed-event count is a semantic
   regression, not noise.  [events] was re-pinned once, see the note
   above the tables. *)

module Runner = Bgp_netsim.Runner
module Network = Bgp_netsim.Network
module Telemetry = Bgp_netsim.Telemetry
module Config = Bgp_proto.Config
module Degree_dist = Bgp_topology.Degree_dist
module As_topology = Bgp_topology.As_topology
module Topology = Bgp_topology.Topology
module Graph = Bgp_topology.Graph
module Rng = Bgp_engine.Rng
module Profile = Bgp_engine.Profile

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 0.0) msg

type golden = {
  warmup_delay : float;
  convergence_delay : float;
  messages : int;
  adverts : int;
  withdrawals : int;
  warmup_messages : int;
  max_queue : int;
  events : int;
}

let flat_scenario =
  Runner.scenario
    ~net:(Network.config_default Config.(with_mrai (Static 1.25) default))
    ~failure:(Runner.Fraction 0.1) ~seed:3
    (Runner.Flat { spec = Degree_dist.skewed_70_30; n = 24 })

let realistic_scenario =
  Runner.scenario
    ~net:(Network.config_default Config.default)
    ~failure:(Runner.Fraction 0.1) ~seed:5
    (Runner.Realistic (As_topology.default ~n_ases:16))

let ring_topology n =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    Graph.add_edge g u ((u + 1) mod n)
  done;
  Topology.of_graph (Rng.create 99) g

let tdown_scenario =
  Runner.scenario
    ~net:(Network.config_default Config.(with_mrai (Static 2.0) default))
    ~failure:(Runner.Links [ (0, 1); (3, 4) ])
    ~seed:7
    (Runner.Fixed (ring_topology 8))

(* [events] is one lower than the original pins in every row: the
   retired sequential engine scheduled the failure injection as an event,
   while the windowed engine injects it between phases.  Every other
   field is unchanged. *)
let flat_golden =
  [|
    { warmup_delay = 4.5932573959610448; convergence_delay = 3.410523805227708;
      messages = 568; adverts = 243; withdrawals = 325; warmup_messages = 1759;
      max_queue = 53; events = 5154 };
    { warmup_delay = 4.7545541373778049; convergence_delay = 1.6452888802113126;
      messages = 292; adverts = 121; withdrawals = 171; warmup_messages = 1612;
      max_queue = 60; events = 4242 };
    { warmup_delay = 5.3120246805448161; convergence_delay = 1.605273460530209;
      messages = 383; adverts = 145; withdrawals = 238; warmup_messages = 1802;
      max_queue = 66; events = 4867 };
    { warmup_delay = 5.5432049761709292; convergence_delay = 2.6954369334525614;
      messages = 353; adverts = 164; withdrawals = 189; warmup_messages = 1847;
      max_queue = 61; events = 4963 };
  |]

let realistic_golden =
  [|
    { warmup_delay = 104.66676969548706; convergence_delay = 24.543814509711865;
      messages = 206; adverts = 48; withdrawals = 158; warmup_messages = 911;
      max_queue = 11; events = 2389 };
    { warmup_delay = 72.06510557918979; convergence_delay = 51.305429495061432;
      messages = 2303; adverts = 1091; withdrawals = 1212; warmup_messages = 3486;
      max_queue = 40; events = 11833 };
    { warmup_delay = 129.02370705946035; convergence_delay = 84.293078716471001;
      messages = 334; adverts = 120; withdrawals = 214; warmup_messages = 698;
      max_queue = 13; events = 2217 };
    { warmup_delay = 55.135980722034517; convergence_delay = 0.46674715613026763;
      messages = 181; adverts = 119; withdrawals = 62; warmup_messages = 8534;
      max_queue = 85; events = 19043 };
  |]

let tdown_golden =
  [|
    { warmup_delay = 5.442808348848355; convergence_delay = 0.27309701573459044;
      messages = 37; adverts = 4; withdrawals = 33; warmup_messages = 76;
      max_queue = 6; events = 290 };
    { warmup_delay = 5.6734814882078108; convergence_delay = 0.27713364433453869;
      messages = 37; adverts = 4; withdrawals = 33; warmup_messages = 80;
      max_queue = 6; events = 301 };
    { warmup_delay = 5.6287803441753566; convergence_delay = 0.2490448934295717;
      messages = 37; adverts = 4; withdrawals = 33; warmup_messages = 78;
      max_queue = 6; events = 297 };
    { warmup_delay = 5.2558436216893147; convergence_delay = 0.26889247484797174;
      messages = 37; adverts = 4; withdrawals = 33; warmup_messages = 84;
      max_queue = 6; events = 307 };
  |]

let check_family name scenario golden () =
  Array.iteri
    (fun i g ->
      let r = Runner.run { scenario with Runner.seed = scenario.Runner.seed + i } in
      let ctx field = Printf.sprintf "%s seed+%d: %s" name i field in
      checkb (ctx "converged") true r.Runner.converged;
      checkf (ctx "warmup_delay") g.warmup_delay r.Runner.warmup_delay;
      checkf (ctx "convergence_delay") g.convergence_delay r.Runner.convergence_delay;
      checki (ctx "messages") g.messages r.Runner.messages;
      checki (ctx "adverts") g.adverts r.Runner.adverts;
      checki (ctx "withdrawals") g.withdrawals r.Runner.withdrawals;
      checki (ctx "warmup_messages") g.warmup_messages r.Runner.warmup_messages;
      checki (ctx "max_queue") g.max_queue r.Runner.max_queue;
      checki (ctx "events") g.events r.Runner.events)
    golden

(* Turning telemetry on must not perturb any routing-relevant golden
   field, and its report must account for the same totals. *)
let check_telemetry_neutral name scenario golden () =
  let tele_scenario =
    {
      scenario with
      Runner.net = { scenario.Runner.net with Network.telemetry = Some (Telemetry.config ()) };
    }
  in
  let g = golden.(0) in
  let r = Runner.run tele_scenario in
  let ctx field = Printf.sprintf "%s (telemetry on): %s" name field in
  checkb (ctx "converged") true r.Runner.converged;
  checkf (ctx "warmup_delay") g.warmup_delay r.Runner.warmup_delay;
  checkf (ctx "convergence_delay") g.convergence_delay r.Runner.convergence_delay;
  checki (ctx "messages") g.messages r.Runner.messages;
  checki (ctx "warmup_messages") g.warmup_messages r.Runner.warmup_messages;
  match r.Runner.report with
  | None -> Alcotest.fail (ctx "expected a telemetry report")
  | Some report ->
    let counter n =
      match List.find_opt (fun (name, _, _) -> name = n) report.Telemetry.counters with
      | Some (_, _, v) -> v
      | None -> Alcotest.failf "%s: counter %s missing" name n
    in
    checkf (ctx "net.messages_sent counter")
      (float_of_int (g.messages + g.warmup_messages))
      (counter "net.messages_sent");
    checkb (ctx "paths built") true (counter "path.interned" > 0.0);
    checkb (ctx "cached prepends served") true (counter "path.intern_hits" > 0.0)

let span_count (rep : Profile.report) ~f =
  List.fold_left
    (fun acc (d : Profile.domain_report) ->
      List.fold_left
        (fun acc (s : Profile.span_total) -> if f s then acc + s.Profile.count else acc)
        acc d.Profile.spans)
    0 rep.Profile.domains

let warmups rep = span_count rep ~f:(fun s -> s.Profile.kind = Profile.Warmup)

(* Arming the wall-clock profiler must not perturb any golden either: it
   reads only the monotonic clock and GC statistics, never simulated
   state, so all 12 pinned results stay bit-identical with --prof on. *)
let check_profiler_neutral name scenario golden () =
  Profile.start ();
  check_family name scenario golden ();
  match Profile.stop () with
  | None -> Alcotest.fail (name ^ ": profiler was armed but returned no report")
  | Some rep ->
    checki (name ^ ": one warmup span per trial") (Array.length golden) (warmups rep)

(* Same bit-identity at two shards, where the hot loop runs real
   barriers and carries the per-window span instrumentation; the
   reference is the same two-shard run with the profiler off. *)
let check_profiler_neutral_sharded name scenario () =
  let fields (r : Runner.result) =
    ( ( r.Runner.converged,
        r.Runner.warmup_delay,
        r.Runner.convergence_delay,
        r.Runner.messages,
        r.Runner.adverts ),
      ( r.Runner.withdrawals,
        r.Runner.warmup_messages,
        r.Runner.max_queue,
        r.Runner.events,
        r.Runner.issues ) )
  in
  Array.iter
    (fun i ->
      let scenario =
        { scenario with Runner.sharding = Some 2; Runner.seed = scenario.Runner.seed + i }
      in
      let off = Runner.run scenario in
      Profile.start ();
      let on = Runner.run scenario in
      let rep = Profile.stop () in
      checkb (Printf.sprintf "%s seed+%d: sharded run identical with --prof on" name i)
        true
        (fields off = fields on);
      match rep with
      | None -> Alcotest.fail (name ^ ": profiler was armed but returned no report")
      | Some rep ->
        checki (Printf.sprintf "%s seed+%d: one warmup span" name i) 1 (warmups rep);
        checkb (Printf.sprintf "%s seed+%d: per-shard compute spans recorded" name i)
          true
          (span_count rep ~f:(fun s ->
               s.Profile.kind = Profile.Compute && s.Profile.shard >= 0)
          > 0))
    [| 0; 1; 2; 3 |]

let () =
  Alcotest.run "golden"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "flat 70-30 (4 seeds)" `Quick
            (check_family "flat" flat_scenario flat_golden);
          Alcotest.test_case "realistic 16-AS (4 seeds)" `Quick
            (check_family "realistic" realistic_scenario realistic_golden);
          Alcotest.test_case "Tdown ring (4 seeds)" `Quick
            (check_family "tdown" tdown_scenario tdown_golden);
        ] );
      ( "telemetry-neutral",
        [
          Alcotest.test_case "flat" `Quick
            (check_telemetry_neutral "flat" flat_scenario flat_golden);
          Alcotest.test_case "realistic" `Quick
            (check_telemetry_neutral "realistic" realistic_scenario realistic_golden);
          Alcotest.test_case "Tdown" `Quick
            (check_telemetry_neutral "tdown" tdown_scenario tdown_golden);
        ] );
      ( "profiler-neutral",
        [
          Alcotest.test_case "flat (4 seeds)" `Quick
            (check_profiler_neutral "flat" flat_scenario flat_golden);
          Alcotest.test_case "realistic (4 seeds)" `Quick
            (check_profiler_neutral "realistic" realistic_scenario realistic_golden);
          Alcotest.test_case "Tdown (4 seeds)" `Quick
            (check_profiler_neutral "tdown" tdown_scenario tdown_golden);
          Alcotest.test_case "flat sharded (4 seeds)" `Quick
            (check_profiler_neutral_sharded "flat-sharded" flat_scenario);
        ] );
    ]
