module Sched = Bgp_engine.Scheduler
module Rng = Bgp_engine.Rng
module Shard_exec = Bgp_engine.Shard_exec
module Profile = Bgp_engine.Profile
module Topology = Bgp_topology.Topology
module Graph = Bgp_topology.Graph
module Failure = Bgp_topology.Failure
module Router = Bgp_proto.Router
module Types = Bgp_proto.Types

type detection = Link_signal | Hold_timer of Bgp_proto.Session.config

type config = {
  bgp : Bgp_proto.Config.t;
  link_delay : float;
  detection_delay : float;
  detection : detection;
  relationships : Relationships.t option;
  trace : Trace.t option;
  telemetry : Telemetry.config option;
}

let config_default bgp =
  {
    bgp;
    link_delay = 0.025;
    detection_delay = 0.025;
    detection = Link_signal;
    relationships = None;
    trace = None;
    telemetry = None;
  }

(* An update in flight.  [m_seq] is the per-source-router send sequence:
   together with the arrival time and the source router id it forms the
   delivery sort key, which depends only on what each router did — never
   on the shard layout — so the delivery schedule is bit-identical for any
   shard count. *)
type msg = {
  m_arrival : float;
  m_src : int;
  m_dst : int;
  m_seq : int;
  m_update : Types.update;
  m_sent_id : int;  (* Update_sent trace id, or [Trace.no_cause] *)
}

let msg_compare a b =
  let c = Float.compare a.m_arrival b.m_arrival in
  if c <> 0 then c
  else
    let c = Int.compare a.m_src b.m_src in
    if c <> 0 then c else Int.compare a.m_seq b.m_seq

(* Everything one shard's domain owns: its scheduler (inside the
   executor), its path-interning table, the trace events it recorded since
   the last flush, its counters, and its replica of the fault tables.
   Fault events are replicated into every shard's scheduler, so each
   replica of the severed/factor/loss/skew tables evolves identically — a
   sender can read delay factors and a receiver can read loss/sever state
   without ever crossing a domain boundary. *)
type shard_ctx = {
  ssched : Sched.t;
  spaths : Bgp_proto.Path.table;
  mutable s_events : Trace.event list;  (* strided ids, newest first *)
  mutable s_adverts : int;
  mutable s_withdrawals : int;
  mutable s_session_downs : int;
  mutable s_last_activity : float;
  mutable s_lost : int;
  mutable s_rep_events : int;  (* replicated fault events executed here *)
  s_severed : (int * int, int) Hashtbl.t;
      (* link -> sever count; counted so overlapping faults (a partition
         and a session reset covering the same link) only restore the
         link when every fault holding it down has lifted *)
  s_factor : (int * int, float) Hashtbl.t;  (* delay multiplier; absent = 1.0 *)
  s_loss : (int * int, float) Hashtbl.t;  (* drop probability; absent = 0.0 *)
  s_skew : float array;  (* per-router receive-clock offset, seconds *)
}

type t = {
  topo : Topology.t;
  config : config;
  routers : Router.t array;
  detect_rng : Rng.t;  (* hold-timer detection sampling *)
  failed : bool array;
  sessions : (int * int * Types.session_kind) list;
  session_peers : int list array;  (* BGP session neighbours of each router *)
  exec : msg Shard_exec.t;
  owner : int array;  (* router -> shard *)
  ctxs : shard_ctx array;
  (* Per-router trace-id and send-sequence counters.  Each slot is
     written only by its owner's domain (or the single-threaded
     orchestrator between phases). *)
  sid : int array;
  mseq : int array;
  lookahead : float;
  deliver : int -> msg -> unit;
  trace : Trace.t option;  (* the run's trace (see [flush_trace]) *)
  mutable faults_on : bool;
  mutable loss_salt : int64;
}

let link_key u v = if u <= v then (u, v) else (v, u)

let compute_sessions topo =
  let acc = ref [] in
  (* eBGP: one session per inter-AS physical link. *)
  Graph.fold_edges
    (fun u v () ->
      if Topology.is_ebgp topo u v then acc := (u, v, Types.Ebgp) :: !acc)
    topo.Topology.graph ();
  (* iBGP: full mesh inside each AS. *)
  for a = 0 to topo.Topology.n_ases - 1 do
    let members = Topology.routers_of_as topo a in
    let rec mesh = function
      | [] -> ()
      | u :: rest ->
        List.iter (fun v -> acc := (u, v, Types.Ibgp) :: !acc) rest;
        mesh rest
    in
    mesh members
  done;
  List.rev !acc

let sessions_of_topology = compute_sessions

let sum_metrics t =
  let zero =
    {
      Router.adverts_sent = 0;
      withdrawals_sent = 0;
      msgs_processed = 0;
      eliminated = 0;
      max_queue = 0;
      mrai_transitions = 0;
      mrai_level = 0;
      damping_suppressions = 0;
    }
  in
  Array.fold_left
    (fun (acc : Router.metrics) router ->
      if Router.is_failed router then acc
      else
        let m = Router.metrics router in
        {
          Router.adverts_sent = acc.adverts_sent + m.adverts_sent;
          withdrawals_sent = acc.withdrawals_sent + m.withdrawals_sent;
          msgs_processed = acc.msgs_processed + m.msgs_processed;
          eliminated = acc.eliminated + m.eliminated;
          max_queue = Stdlib.max acc.max_queue m.max_queue;
          mrai_transitions = acc.mrai_transitions + m.mrai_transitions;
          mrai_level = Stdlib.max acc.mrai_level m.mrai_level;
          damping_suppressions = acc.damping_suppressions + m.damping_suppressions;
        })
    zero t.routers

let topology t = t.topo
let bgp_config t = t.config.bgp
let paths t = t.ctxs.(0).spaths
let relationships t = t.config.relationships
let router t i = t.routers.(i)
let num_routers t = Array.length t.routers
let sessions t = t.sessions
let is_failed t r = t.failed.(r)
let start_all t = Array.iter Router.start t.routers

let shard_count t = Array.length t.ctxs
let owner_of t r = t.owner.(r)
let shard_sched t s = t.ctxs.(s).ssched
let paths_for t r = t.ctxs.(t.owner.(r)).spaths

let sum_ctxs t f = Array.fold_left (fun acc c -> acc + f c) 0 t.ctxs
let adverts_sent t = sum_ctxs t (fun c -> c.s_adverts)
let withdrawals_sent t = sum_ctxs t (fun c -> c.s_withdrawals)
let messages_sent t = adverts_sent t + withdrawals_sent t
let session_downs t = sum_ctxs t (fun c -> c.s_session_downs)
let lost_messages t = sum_ctxs t (fun c -> c.s_lost)

let last_activity t =
  Array.fold_left (fun acc c -> Float.max acc c.s_last_activity) 0.0 t.ctxs

let now t = Shard_exec.now t.exec
let pending t = Shard_exec.pending t.exec

(* Replicated fault events execute once per shard; normalize the event
   count so it reads as "events one observer of the whole network saw":
   subtract every shard's replicas, then count shard 0's once. *)
let note_replica t ~shard =
  t.ctxs.(shard).s_rep_events <- t.ctxs.(shard).s_rep_events + 1

let events t =
  Shard_exec.events_executed t.exec - sum_ctxs t (fun c -> c.s_rep_events)
  + t.ctxs.(0).s_rep_events

(* --- Trace ids and the run's trace --------------------------------------- *)

(* Per-router strided trace ids: router [r]'s k-th event gets id
   [k * n + r].  Each router's ids are allocated by one domain in its
   deterministic execution order, distinct routers can never collide, and
   within one router allocation order is time order.  Fault and churn
   roots carry preassigned ids from [first_root_id] up, a range no
   strided id reaches. *)
let fresh_sid t r =
  let n = Array.length t.sid in
  let s = t.sid.(r) in
  t.sid.(r) <- s + 1;
  (s * n) + r

let first_root_id = 1 lsl 50

let record_on ctx event = ctx.s_events <- event :: ctx.s_events

let by_time_id a b =
  let c = Float.compare (Trace.time_of a) (Trace.time_of b) in
  if c <> 0 then c else Int.compare (Trace.id_of a) (Trace.id_of b)

(* Move every shard's recorded events with [time < horizon] into the
   run's trace.  No shard can still record an event earlier than the
   global next-event time, so flushing below it at each window barrier
   feeds the trace in global (time, strided id) order — a layout-free
   order, identical for every shard count.  Events keep their strided
   ids, so a cause whose event the ring later drops still names it and
   attribution sees the chain as broken.  The run's trace does all
   ring, drop and spill accounting: a traced run holds one copy of its
   events. *)
let flush_trace t trace ~horizon =
  let t0 = if Profile.on () then Profile.now_ns () else 0L in
  let ready = ref [] in
  Array.iter
    (fun ctx ->
      match ctx.s_events with
      | [] -> ()
      | evs ->
        if List.for_all (fun e -> Trace.time_of e < horizon) evs then begin
          ctx.s_events <- [];
          ready := List.rev_append evs !ready
        end
        else begin
          let now, later = List.partition (fun e -> Trace.time_of e < horizon) evs in
          ctx.s_events <- later;
          ready := List.rev_append now !ready
        end)
    t.ctxs;
  (match !ready with
  | [] -> ()
  | evs -> List.iter (Trace.record trace) (List.stable_sort by_time_id evs));
  if Profile.on () then Profile.accum Merge t0

let next_event_time t =
  Array.fold_left
    (fun acc c ->
      match Sched.next_time c.ssched with Some x -> Float.min acc x | None -> acc)
    infinity t.ctxs

let run ?at_barrier t ~cap =
  let at_barrier =
    match (t.trace, at_barrier) with
    | None, hook -> hook
    | Some trace, None -> Some (fun ~now -> flush_trace t trace ~horizon:now)
    | Some trace, Some f ->
      Some
        (fun ~now ->
          flush_trace t trace ~horizon:now;
          f ~now)
  in
  Shard_exec.run_phase t.exec ~lookahead:t.lookahead ~cap ~deliver:t.deliver ?at_barrier ();
  Option.iter (fun trace -> flush_trace t trace ~horizon:(next_event_time t)) t.trace

(* --- Build --------------------------------------------------------------- *)

(* Hash-based gray-link loss: a pure function of (salt, src, dst, send
   seq), so the drop decision rides with the message instead of with a
   shared RNG whose draw order no shard can observe. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let loss_draw t ~src ~dst ~seq =
  let h = mix64 (Int64.add t.loss_salt (Int64.of_int src)) in
  let h = mix64 (Int64.add h (Int64.of_int dst)) in
  let h = mix64 (Int64.add h (Int64.of_int seq)) in
  Int64.to_float (Int64.shift_right_logical h 11) *. 0x1p-53

let deliverable t ctx ~src ~dst ~seq =
  if not t.faults_on then not t.failed.(dst)
  else begin
    let lost () =
      ctx.s_lost <- ctx.s_lost + 1;
      false
    in
    if t.failed.(dst) then lost ()
    else if Hashtbl.mem ctx.s_severed (link_key src dst) then lost ()
    else (
      match Hashtbl.find_opt ctx.s_loss (link_key src dst) with
      | Some p when loss_draw t ~src ~dst ~seq < p -> lost ()
      | Some _ | None -> true)
  end

let build ?(shards = 1) ?owner ?lookahead ~rng ~config ?telemetry topo =
  let n = Topology.num_routers topo in
  let owner = match owner with Some o -> Array.copy o | None -> Array.make n 0 in
  let lookahead =
    match lookahead with Some l -> l | None -> Float.max 1e-6 config.link_delay
  in
  if shards < 1 then invalid_arg "Network.build: shards must be >= 1";
  if lookahead <= 0.0 then invalid_arg "Network.build: lookahead must be positive";
  if Array.length owner <> n then invalid_arg "Network.build: owner array size mismatch";
  Array.iter
    (fun s -> if s < 0 || s >= shards then invalid_arg "Network.build: owner out of range")
    owner;
  let sessions = compute_sessions topo in
  let session_peers = Array.make n [] in
  List.iter
    (fun (u, v, _) ->
      session_peers.(u) <- v :: session_peers.(u);
      session_peers.(v) <- u :: session_peers.(v))
    sessions;
  Array.iteri (fun i l -> session_peers.(i) <- List.sort Int.compare l) session_peers;
  let exec = Shard_exec.create ~shards ~compare:msg_compare in
  let ctxs =
    Array.init shards (fun sx ->
        {
          ssched = Shard_exec.sched exec sx;
          spaths = Bgp_proto.Path.create_table ();
          s_events = [];
          s_adverts = 0;
          s_withdrawals = 0;
          s_session_downs = 0;
          s_last_activity = 0.0;
          s_lost = 0;
          s_rep_events = 0;
          s_severed = Hashtbl.create 16;
          s_factor = Hashtbl.create 16;
          s_loss = Hashtbl.create 16;
          s_skew = Array.make n 0.0;
        })
  in
  let net =
    ref
      {
        topo;
        config;
        routers = [||];
        (* The detection stream first, then one stream per router in index
           order — so a router's RNG stream does not depend on the
           layout. *)
        detect_rng = Rng.split rng;
        failed = Array.make n false;
        sessions;
        session_peers;
        exec;
        owner;
        ctxs;
        sid = Array.make n 0;
        mseq = Array.make n 0;
        lookahead;
        deliver = (fun _ _ -> ());
        trace = config.trace;
        faults_on = false;
        loss_salt = 0L;
      }
  in
  let traced = Option.is_some config.trace in
  let tracer ctx =
    {
      Router.on_processed =
        (fun ~router ~src ~dest ~enqueued ~started ~cause ->
          let id = fresh_sid !net router in
          record_on ctx
            (Trace.Processed
               { id; time = Sched.now ctx.ssched; router; src; dest; enqueued; started; cause });
          id);
      on_mrai_flush =
        (fun ~router ~peer ~dest ~ready ~cause ->
          let id = fresh_sid !net router in
          record_on ctx
            (Trace.Mrai_flush
               { id; time = Sched.now ctx.ssched; router; peer; dest; ready; cause });
          id);
    }
  in
  let base_delay = Float.max 1e-6 config.link_delay in
  (* Every send goes through the mailboxes, so delivery order is decided
     once, at the barrier, by the layout-free (arrival, src router, send
     seq) key. *)
  let send ~src ~dst update =
    let t = !net in
    let ctx = ctxs.(owner.(src)) in
    (match update with
    | Types.Advertise _ -> ctx.s_adverts <- ctx.s_adverts + 1
    | Types.Withdraw _ -> ctx.s_withdrawals <- ctx.s_withdrawals + 1);
    let delay =
      if not t.faults_on then base_delay
      else
        let factor =
          match Hashtbl.find_opt ctx.s_factor (link_key src dst) with
          | Some x -> x
          | None -> 1.0
        in
        Float.max 1e-6 ((config.link_delay *. factor) +. ctx.s_skew.(dst))
    in
    let seq = t.mseq.(src) in
    t.mseq.(src) <- seq + 1;
    let sent_id =
      if not traced then Trace.no_cause
      else begin
        let id = fresh_sid t src in
        record_on ctx
          (Trace.Update_sent
             {
               id;
               time = Sched.now ctx.ssched;
               src;
               dst;
               update;
               cause = Router.current_cause t.routers.(src);
             });
        id
      end
    in
    Shard_exec.post exec ~src:owner.(src) ~dst:owner.(dst)
      {
        m_arrival = Sched.now ctx.ssched +. delay;
        m_src = src;
        m_dst = dst;
        m_seq = seq;
        m_update = update;
        m_sent_id = sent_id;
      }
  in
  let deliver d m =
    let t = !net in
    let ctx = ctxs.(d) in
    (* Cross-shard advertisements are re-interned into the receiving
       shard's table; path identity never reaches route selection (RIB
       ranking is structural), so rehoming is invisible. *)
    let update =
      if owner.(m.m_src) = d then m.m_update
      else
        match m.m_update with
        | Types.Withdraw _ as u -> u
        | Types.Advertise { dest; path } ->
          Types.Advertise
            { dest; path = Bgp_proto.Path.of_list ctx.spaths (Bgp_proto.Path.hops path) }
    in
    ignore
      (Sched.schedule_at ctx.ssched ~time:m.m_arrival (fun () ->
           if deliverable t ctx ~src:m.m_src ~dst:m.m_dst ~seq:m.m_seq then
             if not traced then Router.receive t.routers.(m.m_dst) ~src:m.m_src update
             else begin
               let id = fresh_sid t m.m_dst in
               record_on ctx
                 (Trace.Update_delivered
                    {
                      id;
                      time = Sched.now ctx.ssched;
                      src = m.m_src;
                      dst = m.m_dst;
                      update;
                      cause = m.m_sent_id;
                    });
               Router.receive t.routers.(m.m_dst) ~cause:id ~src:m.m_src update
             end))
  in
  let tracers = Array.map (fun ctx -> if traced then Some (tracer ctx) else None) ctxs in
  let routers =
    Array.init n (fun i ->
        let router_rng = Rng.split rng in
        let ctx = ctxs.(owner.(i)) in
        let cb =
          {
            Router.send;
            activity =
              (fun ~time -> if time > ctx.s_last_activity then ctx.s_last_activity <- time);
          }
        in
        Router.create ~sched:ctx.ssched ~rng:router_rng ~paths:ctx.spaths ~config:config.bgp
          ~id:i ~asn:topo.Topology.as_of_router.(i)
          ~degree:(Topology.inter_as_degree topo i)
          ?tracer:tracers.(owner.(i)) cb)
  in
  net := { !net with routers; deliver };
  List.iter
    (fun (u, v, kind) ->
      let rel_of a b =
        match config.relationships with
        | None -> None
        | Some rels -> Relationships.relation rels ~from:a ~toward:b
      in
      Router.add_peer routers.(u) ~peer:v ~peer_as:topo.Topology.as_of_router.(v) ~kind
        ?relationship:(rel_of u v) ();
      Router.add_peer routers.(v) ~peer:u ~peer_as:topo.Topology.as_of_router.(u) ~kind
        ?relationship:(rel_of v u) ())
    sessions;
  (* Getter-backed metrics: registration stores one closure per name and
     reads happen only at snapshot time, so a registered-but-unread
     counter costs nothing during the run. *)
  (match telemetry with
  | None -> ()
  | Some tele ->
    let t = !net in
    let reg name kind read = Telemetry.register tele ~name ~kind read in
    let counter name read = reg name Telemetry.Counter (fun () -> float_of_int (read ())) in
    counter "net.adverts_sent" (fun () -> adverts_sent t);
    counter "net.withdrawals_sent" (fun () -> withdrawals_sent t);
    counter "net.messages_sent" (fun () -> messages_sent t);
    counter "net.session_downs" (fun () -> session_downs t);
    let router_metric name kind pick =
      reg name kind (fun () -> float_of_int (pick (sum_metrics t)))
    in
    router_metric "router.msgs_processed" Telemetry.Counter (fun m ->
        m.Router.msgs_processed);
    router_metric "queue.eliminated" Telemetry.Counter (fun m -> m.Router.eliminated);
    router_metric "queue.max_depth" Telemetry.Gauge (fun m -> m.Router.max_queue);
    router_metric "mrai.transitions" Telemetry.Counter (fun m ->
        m.Router.mrai_transitions);
    router_metric "mrai.max_level" Telemetry.Gauge (fun m -> m.Router.mrai_level);
    router_metric "damping.suppressions" Telemetry.Counter (fun m ->
        m.Router.damping_suppressions);
    reg "sched.events" Telemetry.Gauge (fun () -> float_of_int (events t));
    reg "sched.time" Telemetry.Gauge (fun () -> now t);
    reg "path.interned" Telemetry.Gauge (fun () ->
        float_of_int (sum_ctxs t (fun c -> Bgp_proto.Path.unique_count c.spaths)));
    counter "path.intern_hits" (fun () ->
        sum_ctxs t (fun c -> Bgp_proto.Path.hit_count c.spaths)));
  !net

(* --- Failure injection (orchestrator-time, between phases) --------------- *)

(* How long a surviving session peer takes to notice a drop: via the link
   layer after a fixed delay, or when the BGP hold timer expires (sampled
   from the session timing model: jittered hold time minus the time
   already elapsed since the last keepalive). *)
let detection_sample t =
  match t.config.detection with
  | Link_signal -> t.config.detection_delay
  | Hold_timer session ->
    let hold =
      if session.Bgp_proto.Session.jitter then
        session.Bgp_proto.Session.hold_time *. Rng.uniform t.detect_rng ~lo:0.75 ~hi:1.0
      else session.Bgp_proto.Session.hold_time
    in
    let keepalive = session.Bgp_proto.Session.keepalive_fraction *. hold in
    let since_last_keepalive = Rng.uniform t.detect_rng ~lo:0.0 ~hi:keepalive in
    Float.max 0.001 (hold -. since_last_keepalive)

(* The surviving endpoint [a] of a session to [b] learns of a state change
   at [time] on its own shard and records the causal trace event then. *)
let notify_session t ~dir ~cause ~time a b =
  let ctx = t.ctxs.(t.owner.(a)) in
  ignore
    (Sched.schedule_at ctx.ssched ~time (fun () ->
         if not t.failed.(a) then
           match dir with
           | `Down ->
             ctx.s_session_downs <- ctx.s_session_downs + 1;
             if Option.is_none t.trace then Router.peer_down t.routers.(a) b
             else begin
               let id = fresh_sid t a in
               record_on ctx
                 (Trace.Session_down { id; time = Sched.now ctx.ssched; router = a; peer = b; cause });
               Router.peer_down t.routers.(a) ~cause:id b
             end
           | `Up ->
             if Option.is_none t.trace then Router.peer_up t.routers.(a) b
             else begin
               let id = fresh_sid t a in
               record_on ctx
                 (Trace.Session_up { id; time = Sched.now ctx.ssched; router = a; peer = b; cause });
               Router.peer_up t.routers.(a) ~cause:id b
             end))

let inject_failure t ~at failure =
  let n = num_routers t in
  (* Trace ids of the Router_failed events, so each surviving peer's
     Session_down can point at the failure that caused it. *)
  let fail_ids = Array.make n Trace.no_cause in
  for r = 0 to n - 1 do
    if Failure.is_failed failure r && not t.failed.(r) then begin
      t.failed.(r) <- true;
      if Option.is_some t.trace then begin
        let id = fresh_sid t r in
        fail_ids.(r) <- id;
        record_on t.ctxs.(t.owner.(r)) (Trace.Router_failed { id; time = at; router = r })
      end;
      Router.fail t.routers.(r)
    end
  done;
  (* One [detect_rng] stream, drawn in global (failed router, peer) order
     — layout-independent by construction. *)
  for r = 0 to n - 1 do
    if Failure.is_failed failure r then
      List.iter
        (fun peer ->
          if not t.failed.(peer) then
            notify_session t ~dir:`Down ~cause:fail_ids.(r)
              ~time:(at +. detection_sample t)
              peer r)
        t.session_peers.(r)
  done

let inject_link_failures t ~at links =
  let time = at +. t.config.detection_delay in
  List.iter
    (fun (u, v) ->
      if not t.failed.(u) then notify_session t ~dir:`Down ~cause:Trace.no_cause ~time u v;
      if not t.failed.(v) then notify_session t ~dir:`Down ~cause:Trace.no_cause ~time v u)
    links

(* --- Fault-injection hooks (replica-local) ------------------------------- *)

let enable_faults t ~rng =
  if t.faults_on then invalid_arg "Network.enable_faults: already enabled";
  t.faults_on <- true;
  (* One draw from the injector stream salts the hash-based gray-link
     loss decisions (see [loss_draw]). *)
  t.loss_salt <- Rng.int64 rng

let faults_enabled t = t.faults_on

let require_faults t =
  if not t.faults_on then invalid_arg "Network: call enable_faults before injecting faults"

(* Each hook below runs once per shard (the injector replicates fault
   events into every shard's scheduler) and touches only shard-local
   tables; router notifications fire only on the shard owning the
   affected router, so exactly one shard acts on each session endpoint. *)

let record_fault t ~shard ~id ~label ~router ~cause =
  if Option.is_some t.trace && t.owner.(router) = shard then
    let ctx = t.ctxs.(shard) in
    record_on ctx (Trace.Fault { id; time = Sched.now ctx.ssched; label; router; cause })

let notify_replica t ~shard ~dir ~cause a b =
  if t.owner.(a) = shard && not t.failed.(a) then
    notify_session t ~dir ~cause
      ~time:(Sched.now t.ctxs.(shard).ssched +. t.config.detection_delay)
      a b

let sever_link t ~shard ~cause ~u ~v =
  require_faults t;
  let ctx = t.ctxs.(shard) in
  let k = link_key u v in
  let count = Option.value ~default:0 (Hashtbl.find_opt ctx.s_severed k) in
  Hashtbl.replace ctx.s_severed k (count + 1);
  (* In-flight messages start dropping immediately; the routers only
     notice (and tear the session down) after the detection delay. *)
  if count = 0 then begin
    notify_replica t ~shard ~dir:`Down ~cause u v;
    notify_replica t ~shard ~dir:`Down ~cause v u
  end

let restore_link t ~shard ~cause ~u ~v =
  require_faults t;
  let ctx = t.ctxs.(shard) in
  let k = link_key u v in
  match Hashtbl.find_opt ctx.s_severed k with
  | None -> ()
  | Some 1 ->
    Hashtbl.remove ctx.s_severed k;
    notify_replica t ~shard ~dir:`Up ~cause u v;
    notify_replica t ~shard ~dir:`Up ~cause v u
  | Some c -> Hashtbl.replace ctx.s_severed k (c - 1)

let set_link_factor t ~shard ~u ~v factor =
  if factor <= 0.0 then invalid_arg "Network.set_link_factor: factor must be positive";
  require_faults t;
  let ctx = t.ctxs.(shard) in
  if factor = 1.0 then Hashtbl.remove ctx.s_factor (link_key u v)
  else Hashtbl.replace ctx.s_factor (link_key u v) factor

let set_link_loss t ~shard ~u ~v p =
  if p < 0.0 || p >= 1.0 then
    invalid_arg "Network.set_link_loss: probability must be in [0, 1)";
  require_faults t;
  let ctx = t.ctxs.(shard) in
  if p = 0.0 then Hashtbl.remove ctx.s_loss (link_key u v)
  else Hashtbl.replace ctx.s_loss (link_key u v) p

let set_clock_skew t ~shard ~router skew =
  require_faults t;
  t.ctxs.(shard).s_skew.(router) <- skew

let cross_sessions t ~side =
  List.filter_map
    (fun (u, v, _) -> if side.(u) <> side.(v) then Some (u, v) else None)
    t.sessions

(* --- Telemetry probes ---------------------------------------------------- *)

let probe_tick t tele ~time =
  let rows = ref [] in
  for r = Array.length t.routers - 1 downto 0 do
    if not t.failed.(r) then begin
      let router = t.routers.(r) in
      rows :=
        {
          Telemetry.router = r;
          queue_len = Router.queue_length router;
          unfinished_work = Router.unfinished_work router;
          mrai_level = Router.mrai_level router;
          mrai_transitions = Router.mrai_transitions router;
          rib_size = Router.rib_size router;
          rib_changes = Router.rib_changes router;
        }
        :: !rows
    end
  done;
  Telemetry.record_tick tele ~time (Array.of_list !rows)

(* End-of-run memory snapshot for Telemetry.memory: fixed word-model
   estimates over entry counts, so the result is a pure function of
   simulated state (identical across jobs; see telemetry.mli).  Failed
   routers are included — their RIBs are still resident. *)
let memory_snapshot t =
  let k = shard_count t in
  let routers = Array.make k 0 in
  let rib_entries = Array.make k 0 in
  let rib_bytes = Array.make k 0 in
  Array.iteri
    (fun r router ->
      let s = t.owner.(r) in
      routers.(s) <- routers.(s) + 1;
      let rib = Router.rib router in
      rib_entries.(s) <- rib_entries.(s) + Bgp_proto.Rib.in_entries rib;
      rib_bytes.(s) <- rib_bytes.(s) + Bgp_proto.Rib.approx_bytes rib)
    t.routers;
  let path_stats = Array.map (fun c -> Bgp_proto.Path.table_stats c.spaths) t.ctxs in
  let per_shard =
    List.init k (fun s ->
        let ps = path_stats.(s) in
        let sched = t.ctxs.(s).ssched in
        {
          Telemetry.shard = s;
          routers = routers.(s);
          rib_entries = rib_entries.(s);
          rib_bytes = rib_bytes.(s);
          path_nodes = ps.Bgp_proto.Path.nodes;
          path_bytes = ps.Bgp_proto.Path.approx_bytes;
          sched_max_live = Sched.max_live sched;
          sched_slab_cap = Sched.slab_capacity sched;
        })
  in
  let of_trace f = match t.config.trace with Some tr -> f tr | None -> 0 in
  let path_nodes_total =
    Array.fold_left (fun acc ps -> acc + ps.Bgp_proto.Path.nodes) 0 path_stats
  in
  let path_hops_total =
    Array.fold_left (fun acc ps -> acc + ps.Bgp_proto.Path.hops_total) 0 path_stats
  in
  {
    Telemetry.per_shard;
    rib_bytes_total = Array.fold_left ( + ) 0 rib_bytes;
    path_bytes_total =
      Array.fold_left (fun acc ps -> acc + ps.Bgp_proto.Path.approx_bytes) 0 path_stats;
    path_sharing =
      (if path_nodes_total = 0 then 1.0
       else float_of_int path_hops_total /. float_of_int path_nodes_total);
    trace_len = of_trace Trace.length;
    trace_cap = of_trace Trace.capacity;
    trace_dropped = of_trace Trace.dropped;
    trace_spilled = of_trace Trace.spilled;
  }

let overloaded_routers t ~threshold =
  let acc = ref [] in
  for r = Array.length t.routers - 1 downto 0 do
    if (not t.failed.(r)) && Router.max_unfinished_work t.routers.(r) > threshold then
      acc := r :: !acc
  done;
  !acc
