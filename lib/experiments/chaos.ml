module Rng = Bgp_engine.Rng
module Pool = Bgp_engine.Pool
module J = Bgp_engine.Json_lite
module Runner = Bgp_netsim.Runner
module Network = Bgp_netsim.Network
module Trace = Bgp_netsim.Trace
module Attribution = Bgp_netsim.Attribution
module Fi = Bgp_netsim.Fault_injector
module Router = Bgp_proto.Router
module Rib = Bgp_proto.Rib

type violation = { invariant : string; detail : string }

type outcome = {
  trial : int;
  trial_seed : int;
  schedule : Fi.schedule;
  kinds : string list;
  converged : bool;
  convergence_delay : float;
  messages : int;
  lost : int;
  digest : string;  (* hex digest of the trial's result + full trace *)
  violations : violation list;
}

type minimized = {
  m_trial_seed : int;
  m_schedule : Fi.schedule;
  m_invariants : string list;
  m_original_events : int;
}

type campaign = {
  outcomes : outcome list;
  kinds_seen : string list;
  fingerprint : string;
  minimized : minimized option;
}

type config = {
  base : Runner.scenario;
  trials : int;
  max_events : int;
  horizon : float;
  replay_every : int;  (* rerun every k-th trial and demand bit-identity; 0 = never *)
  capacity : int;  (* trace ring capacity per trial *)
  seed_violation : bool;  (* minimizer self-test: gray_link counts as a violation *)
  sidecar_dir : string option;
      (* per-trial bgp-attr-sidecar/1 emission: one sidecar (attribution +
         invariant verdicts) per trial, written atomically as the trial
         finishes, so `bgpsim serve` can watch the campaign mid-run *)
}

let config ?(trials = 100) ?(max_events = 5) ?(horizon = 8.0) ?(replay_every = 10)
    ?(capacity = 500_000) ?(seed_violation = false) ?sidecar_dir base =
  if trials <= 0 then invalid_arg "Chaos.config: trials must be positive";
  { base; trials; max_events; horizon; replay_every; capacity; seed_violation; sidecar_dir }

(* --- Per-trial schedule derivation --------------------------------------- *)

(* The generator stream is the trial root's 4th split: the runner takes
   the first three (topology, network, faults), so the schedule draws
   are independent of every stream the simulation consumes while still
   being a pure function of the trial seed. *)
let schedule_for cfg (s : Runner.scenario) =
  let topo = Runner.topology_of s in
  let failure = Runner.failure_of s topo in
  let root = Rng.create s.Runner.seed in
  ignore (Rng.split root);
  ignore (Rng.split root);
  ignore (Rng.split root);
  let rng = Rng.split root in
  Fi.generate ~rng ~topo ~failure ~max_events:cfg.max_events ~horizon:cfg.horizon ()

(* --- One instrumented run ------------------------------------------------ *)

type probe = {
  result : Runner.result;
  trace : Trace.t;
  leftover : (int * int * bool) list;  (* surviving routers with queued/busy work *)
  stale : (int * int * int) list;  (* (router, dest, dead peer) Adj-RIB-In entries *)
}

let run_once ~capacity (s : Runner.scenario) schedule =
  let trace = Trace.create ~capacity () in
  let s =
    {
      s with
      Runner.faults = Some schedule;
      net = { s.Runner.net with Network.trace = Some trace };
    }
  in
  let leftover = ref [] in
  let stale = ref [] in
  let inspect net =
    for r = 0 to Network.num_routers net - 1 do
      if not (Network.is_failed net r) then begin
        let router = Network.router net r in
        let q = Router.queue_length router in
        let busy = Router.is_busy router in
        if q > 0 || busy then leftover := (r, q, busy) :: !leftover;
        let rib = Router.rib router in
        Rib.iter_dests rib (fun d ->
            List.iter
              (fun (e : Rib.entry) ->
                if Network.is_failed net e.Rib.peer then
                  stale := (r, d, e.Rib.peer) :: !stale)
              (Rib.entries_in rib d))
      end
    done
  in
  let result = Runner.run_with ~inspect s in
  {
    result;
    trace;
    leftover = List.rev !leftover;
    stale = List.rev !stale;
  }

(* Everything a replay must reproduce: a line of the scalar result
   fields, then every trace event in the trace's binary encoding.  Two
   runs of the same (seed, schedule) must digest identically. *)
let probe_digest p =
  let r = p.result in
  let header =
    Printf.sprintf
      "c=%b wd=%.17g cd=%.17g m=%d a=%d w=%d wm=%d el=%d mq=%d ev=%d lost=%d sc=%b\n"
      r.Runner.converged r.Runner.warmup_delay r.Runner.convergence_delay r.Runner.messages
      r.Runner.adverts r.Runner.withdrawals r.Runner.warmup_messages r.Runner.eliminated
      r.Runner.max_queue r.Runner.events r.Runner.lost_messages r.Runner.survivors_connected
  in
  Digest.to_hex (Trace.digest ~prefix:header p.trace)

(* --- The invariant battery ----------------------------------------------- *)

(* The trace half, in one pass over the complete record: every cause
   precedes its effect in the trace's (time, id) order — the order
   events are recorded in, so the cause must already have been seen —
   the only post-failure roots are injections, and (once the network
   drained) every traced send is delivered or accounted lost.  Router
   events carry small per-router strided ids, one bit each in a bitset
   that grows with the largest id seen; injected roots carry
   preassigned ids from [Network.first_root_id] up. *)
let check_trace ~t_fail ~lost trace =
  let violations = ref [] in
  let add invariant detail = violations := { invariant; detail } :: !violations in
  let dropped = Trace.dropped trace in
  if dropped > 0 then
    add "trace_capacity" (Printf.sprintf "%d events dropped; raise --capacity" dropped)
  else begin
    let root = Network.first_root_id in
    let bits = ref (Bytes.make 64 '\000') in
    let roots = Hashtbl.create 16 in
    let seen id =
      if id >= root then Hashtbl.mem roots id
      else
        id / 8 < Bytes.length !bits
        && Char.code (Bytes.get !bits (id / 8)) land (1 lsl (id mod 8)) <> 0
    in
    let mark id =
      if id >= root then Hashtbl.replace roots id ()
      else begin
        let byte = id / 8 in
        let len = Bytes.length !bits in
        if byte >= len then begin
          let grown = Bytes.make (Stdlib.max (byte + 1) (2 * len)) '\000' in
          Bytes.blit !bits 0 grown 0 len;
          bits := grown
        end;
        Bytes.set !bits byte
          (Char.chr (Char.code (Bytes.get !bits byte) lor (1 lsl (id mod 8))))
      end
    in
    let sent = ref 0 and delivered = ref 0 in
    Trace.iter trace (fun e ->
        let id = Trace.id_of e and cause = Trace.cause_of e in
        if cause >= 0 && not (seen cause) then
          add "cause_order"
            (Printf.sprintf "event #%d caused by #%d, which does not precede it" id cause);
        mark id;
        (match e with
        | Trace.Update_sent _ -> incr sent
        | Trace.Update_delivered _ -> incr delivered
        | _ -> ());
        match e with
        | Trace.Router_failed _ | Trace.Session_down _ | Trace.Fault _ -> ()
        | _ ->
          if cause = Trace.no_cause && Trace.time_of e >= t_fail then
            add "orphan_root" (Fmt.str "%a" Trace.pp_event e));
    match lost with
    | Some lost when !sent <> !delivered + lost ->
      add "conservation"
        (Printf.sprintf "sent %d <> delivered %d + lost %d" !sent !delivered lost)
    | Some _ | None -> ()
  end;
  List.rev !violations

let battery cfg ~probe ~schedule =
  let r = probe.result in
  let attr =
    match r.Runner.attribution with
    | Some a -> a
    | None -> invalid_arg "Chaos.battery: trial was not traced"
  in
  let t_fail = attr.Attribution.t_fail in
  (* 0. The trace half: the harness itself must have seen everything, and
     the record must be causally sound.  Conservation is only meaningful
     once the network drained. *)
  let trace_violations =
    check_trace ~t_fail
      ~lost:(if r.Runner.converged then Some r.Runner.lost_messages else None)
      probe.trace
  in
  let traced_all = Trace.dropped probe.trace = 0 in
  let violations = ref [] in
  let add invariant detail = violations := { invariant; detail } :: !violations in
  (* 1. Convergence reached, or the trial is explicitly diagnosed. *)
  if not r.Runner.converged then
    add "converged"
      (Printf.sprintf "hit the cap; last activity %.3f, delay so far %.3f"
         (t_fail +. r.Runner.convergence_delay)
         r.Runner.convergence_delay);
  (* 2. Attribution telescopes exactly: network-wide and per-dest. *)
  if attr.Attribution.complete then begin
    let sum = Attribution.total attr.Attribution.totals in
    if Float.abs (sum -. attr.Attribution.convergence_delay) > 1e-6 then
      add "telescoping"
        (Printf.sprintf "components %.9f <> delay %.9f" sum
           attr.Attribution.convergence_delay)
  end
  else if traced_all then add "attribution_complete" "critical path did not reach a causal root";
  List.iter
    (fun (d : Attribution.dest_attr) ->
      if d.Attribution.dest_complete then
        let sum = Attribution.total d.Attribution.dest_parts in
        if Float.abs (sum -. d.Attribution.tail) > 1e-6 then
          add "telescoping_dest"
            (Printf.sprintf "dest %d: components %.9f <> tail %.9f"
               d.Attribution.dest sum d.Attribution.tail))
    attr.Attribution.per_dest;
  (* 3. Drained queues and no routes from dead routers at the end. *)
  if r.Runner.converged then
    List.iter
      (fun (router, q, busy) ->
        add "queue_drain"
          (Printf.sprintf "router %d: queue %d, busy %b after convergence" router q busy))
      probe.leftover;
  List.iter
    (fun (router, dest, peer) ->
      add "rib_conservation"
        (Printf.sprintf "router %d still holds dest %d from dead router %d" router dest
           peer))
    probe.stale;
  (* 4. Self-test hook: an intentionally-seeded "violation" the minimizer
     must find and reduce (gray links are one of five kinds, so most
     trials stay green and the campaign still exercises the green path). *)
  if
    cfg.seed_violation
    && List.exists (fun (e : Fi.event) -> Fi.kind_of_fault e.Fi.fault = "gray_link") schedule
  then add "seeded_violation" "intentional: schedule contains a gray_link fault";
  trace_violations @ List.rev !violations

(* --- Trials -------------------------------------------------------------- *)

(* One traced run, reduced to what outlives its trace: the result, the
   digest and the battery's verdict.  The trace is garbage once this
   returns, so a replay never holds two traces at once. *)
let probe_and_check cfg s schedule =
  let probe = run_once ~capacity:cfg.capacity s schedule in
  (probe.result, probe_digest probe, battery cfg ~probe ~schedule)

let run_trial cfg i =
  let trial_seed = cfg.base.Runner.seed + i in
  let s = { cfg.base with Runner.seed = trial_seed } in
  let schedule = schedule_for cfg s in
  let result, digest, violations = probe_and_check cfg s schedule in
  let violations =
    if cfg.replay_every > 0 && i mod cfg.replay_every = 0 then begin
      let again = probe_digest (run_once ~capacity:cfg.capacity s schedule) in
      if again <> digest then
        violations
        @ [
            {
              invariant = "replay_identity";
              detail = Printf.sprintf "digest %s, replay %s" digest again;
            };
          ]
      else violations
    end
    else violations
  in
  (* Sidecar emission: the trial's attribution plus its battery verdict,
     written atomically so a live `bgpsim serve` watcher folds it the
     moment it lands.  Chaos trials spill no trace file — the sidecar is
     the only (and sufficient) per-trial artifact for merging. *)
  (match (cfg.sidecar_dir, result.Runner.attribution) with
  | Some dir, Some attr ->
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let names =
      List.sort_uniq String.compare (List.map (fun v -> v.invariant) violations)
    in
    Attribution.write_sidecar
      (Filename.concat dir (Printf.sprintf "chaos.seed%d.attr.json" trial_seed))
      (Attribution.sidecar_of ~violations:names ~seed:trial_seed attr)
  | _ -> ());
  {
    trial = i;
    trial_seed;
    schedule;
    kinds = Fi.kinds schedule;
    converged = result.Runner.converged;
    convergence_delay = result.Runner.convergence_delay;
    messages = result.Runner.messages;
    lost = result.Runner.lost_messages;
    digest;
    violations;
  }

(* --- Delta-debugging minimization ---------------------------------------- *)

(* Complement-based ddmin over the event list: any sublist of a valid
   schedule is valid, so candidates never need re-validation.  The loop
   ends 1-minimal w.r.t. single-event removal; {!Fi.shrink} then polishes
   magnitudes (durations, sides, probabilities). *)
let ddmin ~fails events =
  let rec go events n =
    let len = List.length events in
    if len <= 1 then events
    else begin
      let chunk = (len + n - 1) / n in
      let complements =
        List.init n (fun i ->
            List.filteri (fun j _ -> j < i * chunk || j >= (i + 1) * chunk) events)
        |> List.filter (fun c -> List.length c < len)
      in
      match List.find_opt fails complements with
      | Some smaller -> go smaller (Stdlib.max (n - 1) 2)
      | None -> if n < len then go events (Stdlib.min len (2 * n)) else events
    end
  in
  go events 2

let minimize cfg (o : outcome) =
  let s = { cfg.base with Runner.seed = o.trial_seed } in
  let check schedule =
    battery cfg ~probe:(run_once ~capacity:cfg.capacity s schedule) ~schedule
  in
  let fails schedule = check schedule <> [] in
  (* Replay-identity violations are a property of the run pair, not the
     schedule; minimize only schedules whose single-run battery fails. *)
  if not (fails o.schedule) then None
  else begin
    let minimal = ddmin ~fails o.schedule in
    let rec polish schedule =
      match List.find_opt fails (Fi.shrink schedule) with
      | Some smaller -> polish smaller
      | None -> schedule
    in
    let m_schedule = polish minimal in
    Some
      {
        m_trial_seed = o.trial_seed;
        m_schedule;
        m_invariants =
          List.sort_uniq String.compare
            (List.map (fun v -> v.invariant) (check m_schedule));
        m_original_events = List.length o.schedule;
      }
  end

(* --- Campaign ------------------------------------------------------------ *)

let run_campaign ?jobs cfg =
  let outcomes = Pool.map ?jobs (run_trial cfg) (List.init cfg.trials Fun.id) in
  let kinds_seen =
    List.sort_uniq String.compare (List.concat_map (fun o -> o.kinds) outcomes)
  in
  let fingerprint =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map (fun o -> Printf.sprintf "%d=%s" o.trial_seed o.digest) outcomes)))
  in
  let minimized =
    match List.find_opt (fun o -> o.violations <> []) outcomes with
    | None -> None
    | Some o -> minimize cfg o
  in
  { outcomes; kinds_seen; fingerprint; minimized }

let violating campaign = List.filter (fun o -> o.violations <> []) campaign.outcomes

(* --- Reporting ----------------------------------------------------------- *)

let strings l = J.Arr (List.map (fun x -> J.Str x) l)

let artifact_to_json cfg campaign =
  let bad = violating campaign in
  J.to_string
    (J.Obj
       [
         ("schema", J.Str "bgp-chaos/1");
         ("base_seed", J.of_int cfg.base.Runner.seed);
         ("trials", J.of_int cfg.trials);
         ("horizon", J.of_float cfg.horizon);
         ("max_events", J.of_int cfg.max_events);
         ("fingerprint", J.Str campaign.fingerprint);
         ("kinds_seen", strings campaign.kinds_seen);
         ("violating_trials", J.of_int (List.length bad));
         ( "violations",
           J.Arr
             (List.map
                (fun o ->
                  J.Obj
                    [
                      ("trial_seed", J.of_int o.trial_seed);
                      ( "invariants",
                        strings
                          (List.sort_uniq String.compare
                             (List.map (fun v -> v.invariant) o.violations)) );
                      ("details", strings (List.map (fun v -> v.detail) o.violations));
                      ("schedule", Fi.to_json o.schedule);
                    ])
                (List.filteri (fun i _ -> i < 20) bad)) );
         ( "minimized",
           J.of_option
             (fun m ->
               J.Obj
                 [
                   ("trial_seed", J.of_int m.m_trial_seed);
                   ("original_events", J.of_int m.m_original_events);
                   ("events", J.of_int (List.length m.m_schedule));
                   ("invariants", strings m.m_invariants);
                   ("schedule", Fi.to_json m.m_schedule);
                 ])
             campaign.minimized );
       ])

let pp_campaign ppf campaign =
  let bad = violating campaign in
  let n = List.length campaign.outcomes in
  let converged = List.length (List.filter (fun o -> o.converged) campaign.outcomes) in
  let lost = List.fold_left (fun acc o -> acc + o.lost) 0 campaign.outcomes in
  Fmt.pf ppf "chaos: %d trials, %d converged, %d violating@." n converged
    (List.length bad);
  Fmt.pf ppf "  fault kinds seen: %s@." (String.concat ", " campaign.kinds_seen);
  Fmt.pf ppf "  messages lost in flight: %d@." lost;
  Fmt.pf ppf "  fingerprint: %s@." campaign.fingerprint;
  List.iter
    (fun o ->
      Fmt.pf ppf "  FAIL seed %d: %s@." o.trial_seed
        (String.concat ", "
           (List.sort_uniq String.compare
              (List.map (fun v -> v.invariant) o.violations)));
      List.iter (fun v -> Fmt.pf ppf "    [%s] %s@." v.invariant v.detail) o.violations)
    (List.filteri (fun i _ -> i < 10) bad);
  if List.length bad > 10 then Fmt.pf ppf "  ... and %d more@." (List.length bad - 10);
  match campaign.minimized with
  | None -> ()
  | Some m ->
    Fmt.pf ppf "  minimized (seed %d): %d -> %d events, still violating [%s]@."
      m.m_trial_seed m.m_original_events (List.length m.m_schedule)
      (String.concat ", " m.m_invariants);
    List.iter (fun e -> Fmt.pf ppf "    %a@." Fi.pp_event e) m.m_schedule
