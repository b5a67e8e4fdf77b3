open Types
module Sched = Bgp_engine.Scheduler
module Rng = Bgp_engine.Rng
module Dist = Bgp_engine.Dist
module Mrai = Bgp_core.Mrai_controller
module Iq = Bgp_core.Input_queue
module Damping = Bgp_core.Damping
module Int_table = Bgp_engine.Int_table

type work = Update_msg of update | Peer_down_msg | Peer_up_msg

type peer_state = {
  peer_id : router_id;
  peer_as : as_id;
  kind : session_kind;
  peer_rel : relationship option;
  controller : Mrai.t;
  mutable up : bool;
  (* Per-peer MRAI mode. *)
  mutable timer_running : bool;
  mutable timer_event : Sched.event_id option;
  (* Per-dest MRAI mode: destinations with a running timer. *)
  dest_timers : Sched.event_id Int_table.t;
  (* Adj-RIB-Out, indexed by destination; [Path.absent] = nothing
     advertised.  Grown on demand, like [pending]. *)
  mutable advertised : path array;
  (* Destinations held back by the MRAI gate: one byte each, 1 = pending. *)
  mutable pending : Bytes.t;
  mutable pending_count : int;
  (* When each pending destination was last marked pending, and the trace
     id of the event that marked it.  Kept only when a tracer is
     attached: the Mrai_flush trace event is their only reader. *)
  ready : (float * int) Int_table.t;
  flaps : int Int_table.t;
      (* route changes since the last paced flush; counted only under the
         Flap_threshold bypass, its only reader *)
}

type callbacks = {
  send : src:router_id -> dst:router_id -> update -> unit;
  activity : time:float -> unit;
}

type tracer = {
  on_processed :
    router:router_id ->
    src:router_id ->
    dest:dest ->
    enqueued:float ->
    started:float ->
    cause:int ->
    int;
  on_mrai_flush :
    router:router_id -> peer:router_id -> dest:dest -> ready:float -> cause:int -> int;
}

type t = {
  id : router_id;
  asn : as_id;
  config : Config.t;
  sched : Sched.t;
  rng : Rng.t;
  paths : Path.table;  (* the run's path counters *)
  rib : Rib.t;
  (* Export cache, indexed by destination: the eBGP prepend last made,
     served again while the Loc-RIB path it extends is unchanged.
     [Path.absent] = none yet; grown on demand. *)
  mutable prepends : path array;
  input : work Iq.t;
  peers : peer_state Int_table.t;
  mutable peer_list : router_id list;  (* ascending, for deterministic iteration *)
  mutable peer_states : peer_state list;  (* same order as [peer_list] *)
  ebgp_controller : Mrai.t;
  ibgp_controller : Mrai.t;
  mean_proc : float;
  adaptive : bool;
      (* the eBGP controller reacts to load; when false the per-message
         load-window accounting and level checks are skipped entirely *)
  cb : callbacks;
  tracer : tracer option;
  (* Trace id of the event whose handling is currently executing: the
     [Processed] completion or [Mrai_flush] that any update sent right now
     is caused by.  [-1] when untraced or outside any handler. *)
  mutable cur_cause : int;
  mutable busy : bool;
  mutable failed : bool;
  mutable last_level : int;  (* for dynamic_restart_timers *)
  damping : Damping.t option;
  (* Routes received while suppressed, reinstalled at their reuse time. *)
  parked : (router_id * dest, session_kind * path * int) Hashtbl.t;
  (* Load window for the utilization / message-count detectors. *)
  mutable window_start : float;
  mutable busy_in_window : float;
  mutable msgs_in_window : int;
  mutable last_utilization : float;
  mutable last_msgs_in_window : int;
  (* Counters. *)
  mutable adverts_sent : int;
  mutable withdrawals_sent : int;
  mutable msgs_processed : int;
  mutable max_unfinished_work : float;
  mutable rib_changes : int;  (* export-relevant Loc-RIB revisions *)
  (* Steady-state observer: called on every export-relevant Loc-RIB
     revision with (dest, now).  Pure observation — it must not draw
     randomness or schedule events (the churn monitor records per-prefix
     settle times through it). *)
  mutable on_rib_change : (int -> float -> unit) option;
}

let create ~sched ~rng ~paths ~config ~id ~asn ~degree ?tracer cb =
  let ebgp_controller = Mrai.make config.Config.mrai_scheme ~degree in
  {
    id;
    asn;
    config;
    sched;
    rng;
    paths;
    rib = Rib.create ~asn;
    prepends = [||];
    input = Iq.create config.Config.queue_discipline;
    peers = Int_table.create 16;
    peer_list = [];
    peer_states = [];
    ebgp_controller;
    ibgp_controller = Mrai.make (Static config.Config.ibgp_mrai) ~degree;
    mean_proc = Dist.mean config.Config.processing_delay;
    adaptive = Mrai.is_adaptive ebgp_controller;
    cb;
    tracer;
    cur_cause = -1;
    busy = false;
    failed = false;
    last_level = 0;
    damping = Option.map Damping.create config.Config.damping;
    parked = Hashtbl.create 16;
    window_start = 0.0;
    busy_in_window = 0.0;
    msgs_in_window = 0;
    last_utilization = 0.0;
    last_msgs_in_window = 0;
    adverts_sent = 0;
    withdrawals_sent = 0;
    msgs_processed = 0;
    max_unfinished_work = 0.0;
    rib_changes = 0;
    on_rib_change = None;
  }

let set_rib_change_hook t f = t.on_rib_change <- Some f

let id t = t.id
let asn t = t.asn
let current_cause t = t.cur_cause
let rib t = t.rib
let is_failed t = t.failed
let peer_ids t = t.peer_list
let queue_length t = Iq.length t.input
let is_busy t = t.busy

let add_peer t ~peer ~peer_as ~kind ?relationship () =
  if Int_table.mem t.peers peer then invalid_arg "Router.add_peer: duplicate peer";
  let controller =
    match kind with Ebgp -> t.ebgp_controller | Ibgp -> t.ibgp_controller
  in
  Int_table.replace t.peers peer
    {
      peer_id = peer;
      peer_as;
      kind;
      peer_rel = relationship;
      controller;
      up = true;
      timer_running = false;
      timer_event = None;
      dest_timers = Int_table.create 1;
      advertised = [||];
      pending = Bytes.empty;
      pending_count = 0;
      ready = Int_table.create 1;
      flaps = Int_table.create 1;
    };
  t.peer_list <- List.merge Int.compare [ peer ] t.peer_list;
  t.peer_states <-
    List.map (fun pid -> Int_table.find t.peers pid) t.peer_list

(* --- Load window ------------------------------------------------------- *)

let roll_window t =
  let now = Sched.now t.sched in
  let w = t.config.Config.load_window in
  let elapsed = now -. t.window_start in
  if elapsed >= w then begin
    if elapsed < 2.0 *. w then begin
      t.last_utilization <- Float.min 1.0 (t.busy_in_window /. w);
      t.last_msgs_in_window <- t.msgs_in_window
    end
    else begin
      (* We skipped at least one whole window: the router was idle. *)
      t.last_utilization <- 0.0;
      t.last_msgs_in_window <- 0
    end;
    t.busy_in_window <- 0.0;
    t.msgs_in_window <- 0;
    t.window_start <- now -. Float.rem elapsed w
  end

let observe_load t =
  let work = float_of_int (Iq.length t.input) *. t.mean_proc in
  if work > t.max_unfinished_work then t.max_unfinished_work <- work;
  if t.adaptive then begin
    let load =
      {
        Mrai.now = Sched.now t.sched;
        queue_length = Iq.length t.input;
        mean_processing_delay = t.mean_proc;
        utilization = t.last_utilization;
        updates_in_window = t.last_msgs_in_window;
      }
    in
    Mrai.observe t.ebgp_controller load
  end

(* --- Sending and the MRAI gate ----------------------------------------- *)

let activity t = t.cb.activity ~time:(Sched.now t.sched)

let effective_interval t peer =
  let base = Mrai.current_interval peer.controller in
  if base <= 0.0 then 0.0
  else if t.config.Config.mrai_jitter then base *. Rng.uniform t.rng ~lo:0.75 ~hi:1.0
  else base

(* Per-peer destination arrays ([advertised], [pending]) grow together,
   on the first write beyond their end; reads beyond it find nothing. *)
let grow_peer peer dest =
  let cap = Array.length peer.advertised in
  if dest >= cap then begin
    let cap' = max (dest + 1) (max 16 (2 * cap)) in
    let advertised = Array.make cap' Path.absent in
    Array.blit peer.advertised 0 advertised 0 cap;
    peer.advertised <- advertised;
    let pending = Bytes.make cap' '\000' in
    Bytes.blit peer.pending 0 pending 0 cap;
    peer.pending <- pending
  end

(* Adj-RIB-Out entry towards [peer], or [Path.absent]. *)
let advertised peer dest =
  if dest >= 0 && dest < Array.length peer.advertised then peer.advertised.(dest)
  else Path.absent

let set_advertised peer dest path =
  grow_peer peer dest;
  peer.advertised.(dest) <- path

let send_advert t peer dest path =
  t.adverts_sent <- t.adverts_sent + 1;
  set_advertised peer dest path;
  t.cb.send ~src:t.id ~dst:peer.peer_id (Advertise { dest; path });
  activity t

let send_withdraw t peer dest =
  t.withdrawals_sent <- t.withdrawals_sent + 1;
  peer.advertised.(dest) <- Path.absent;
  t.cb.send ~src:t.id ~dst:peer.peer_id (Withdraw dest);
  activity t

(* What [t] currently offers its peers for [dest]. *)
let offer t dest =
  let cached = if dest < Array.length t.prepends then t.prepends.(dest) else Path.absent in
  Export.offer ~cached ~paths:t.paths ~own_as:t.asn (Rib.best t.rib dest)

(* Keep the prepend [offer] made or served for the next offer of [dest]. *)
let remember t dest offer =
  let p = Export.prepended offer in
  if p != Path.absent then begin
    let cap = Array.length t.prepends in
    if dest >= cap then begin
      let prepends = Array.make (max (dest + 1) (max 16 (2 * cap))) Path.absent in
      Array.blit t.prepends 0 prepends 0 cap;
      t.prepends <- prepends
    end;
    t.prepends.(dest) <- p
  end

(* What should [peer] currently be told?  [Path.absent] = nothing (so a
   withdrawal if something was advertised before). *)
let export_target t peer offer =
  Export.path_for ~config:t.config offer ~peer_kind:peer.kind ~peer_as:peer.peer_as
    ?peer_rel:peer.peer_rel ()

let timer_idle t peer dest =
  match t.config.Config.mrai_mode with
  | Config.Per_peer -> not peer.timer_running
  | Config.Per_dest -> not (Int_table.mem peer.dest_timers dest)

(* Send [target] for one destination unless the peer already holds it.
   Returns [true] if an MRAI-limited message (an advertisement, or any
   message when mrai_on_withdrawals) was sent. *)
let flush_target t peer dest target =
  let advertised = advertised peer dest in
  (* Also true when both are [Path.absent]. *)
  if path_equal target advertised then false
  else if target != Path.absent then begin
    send_advert t peer dest target;
    true
  end
  else begin
    send_withdraw t peer dest;
    t.config.Config.mrai_on_withdrawals
  end

(* Flush one pending destination against the current Loc-RIB. *)
let flush_dest t peer dest =
  let offer = offer t dest in
  let sent = flush_target t peer dest (export_target t peer offer) in
  remember t dest offer;
  sent

let is_pending peer dest =
  dest >= 0 && dest < Bytes.length peer.pending && Bytes.get peer.pending dest <> '\000'

(* Mark [dest] pending towards [peer]; when traced, remember when it
   became MRAI-eligible and which event made it so (for the Mrai_flush
   trace event recorded at timer expiry). *)
let pend t peer dest =
  grow_peer peer dest;
  if Bytes.get peer.pending dest = '\000' then begin
    Bytes.set peer.pending dest '\001';
    peer.pending_count <- peer.pending_count + 1
  end;
  if Option.is_some t.tracer then
    Int_table.replace peer.ready dest (Sched.now t.sched, t.cur_cause)

let unpend t peer dest =
  if is_pending peer dest then begin
    Bytes.set peer.pending dest '\000';
    peer.pending_count <- peer.pending_count - 1;
    if Option.is_some t.tracer then Int_table.remove peer.ready dest
  end

let clear_pending peer =
  if peer.pending_count > 0 then begin
    Bytes.fill peer.pending 0 (Bytes.length peer.pending) '\000';
    peer.pending_count <- 0
  end;
  Int_table.reset peer.ready;
  Int_table.reset peer.flaps

(* The MRAI timer gating pending [dest] fired and it is about to be
   flushed: take it out of the pending set and, when traced, record the
   Mrai_flush event and make it the cause of the updates the flush
   emits. *)
let release t peer dest =
  Bytes.set peer.pending dest '\000';
  peer.pending_count <- peer.pending_count - 1;
  match t.tracer with
  | Some tr ->
    let ready, cause = Int_table.find peer.ready dest in
    Int_table.remove peer.ready dest;
    t.cur_cause <- tr.on_mrai_flush ~router:t.id ~peer:peer.peer_id ~dest ~ready ~cause
  | None -> ()

let rec start_timer t peer =
  let interval = effective_interval t peer in
  if interval > 0.0 then begin
    peer.timer_running <- true;
    let ev = Sched.schedule t.sched ~delay:interval (fun () -> on_peer_timer t peer) in
    peer.timer_event <- Some ev
  end

(* Flush every pending destination, in ascending destination order. *)
and on_peer_timer t peer =
  peer.timer_running <- false;
  peer.timer_event <- None;
  if (not t.failed) && peer.up then begin
    Int_table.reset peer.flaps;
    let sent = ref false in
    let dest = ref 0 in
    while peer.pending_count > 0 do
      let d = !dest in
      if Bytes.get peer.pending d <> '\000' then begin
        release t peer d;
        if flush_dest t peer d then sent := true
      end;
      dest := d + 1
    done;
    if !sent then start_timer t peer
  end

let rec start_dest_timer t peer dest =
  let interval = effective_interval t peer in
  if interval > 0.0 then begin
    let ev =
      Sched.schedule t.sched ~delay:interval (fun () -> on_dest_timer t peer dest)
    in
    Int_table.replace peer.dest_timers dest ev
  end

and on_dest_timer t peer dest =
  Int_table.remove peer.dest_timers dest;
  if (not t.failed) && peer.up && is_pending peer dest then begin
    release t peer dest;
    Int_table.remove peer.flaps dest;
    if flush_dest t peer dest then start_dest_timer t peer dest
  end

let after_send t peer dest =
  match t.config.Config.mrai_mode with
  | Config.Per_peer -> start_timer t peer
  | Config.Per_dest -> start_dest_timer t peer dest

(* Cancel whichever timer currently gates exports of [dest] to [peer]
   (Deshpande-Sikdar "cancel the running MRAI timer"). *)
let cancel_gate_timer t peer dest =
  match t.config.Config.mrai_mode with
  | Config.Per_peer -> (
    match peer.timer_event with
    | Some ev ->
      Sched.cancel t.sched ev;
      peer.timer_event <- None;
      peer.timer_running <- false
    | None -> ())
  | Config.Per_dest -> (
    match Int_table.find_opt peer.dest_timers dest with
    | Some ev ->
      Sched.cancel t.sched ev;
      Int_table.remove peer.dest_timers dest
    | None -> ())

(* Deshpande-Sikdar method 1: is the new export strictly better than what
   the peer currently holds? *)
let is_improvement ~advertised path =
  advertised == Path.absent || path_length path < path_length advertised

let bump_flaps peer dest =
  let count = 1 + Option.value ~default:0 (Int_table.find_opt peer.flaps dest) in
  Int_table.replace peer.flaps dest count;
  count

(* A route change for [dest] happened: decide what (if anything) to tell
   [peer], applying the MRAI gate (and any configured bypass). *)
let schedule_export t peer dest offer =
  if peer.up then begin
    let target = export_target t peer offer in
    let advertised = advertised peer dest in
    (* Nothing to tell: also true when both are [Path.absent]. *)
    if path_equal target advertised then unpend t peer dest
    else if target != Path.absent then begin
      if timer_idle t peer dest then begin
        ignore (flush_target t peer dest target);
        after_send t peer dest
      end
      else
        match t.config.Config.mrai_bypass with
        | Config.No_bypass -> pend t peer dest
        | Config.Cancel_on_improvement ->
          if is_improvement ~advertised target then begin
            cancel_gate_timer t peer dest;
            unpend t peer dest;
            ignore (flush_target t peer dest target);
            after_send t peer dest
          end
          else pend t peer dest
        | Config.Flap_threshold k ->
          if bump_flaps peer dest < k then begin
            (* Below the flap threshold the MRAI is not applied to this
               destination: the update goes out immediately and the gate
               timer is left untouched. *)
            unpend t peer dest;
            ignore (flush_target t peer dest target)
          end
          else pend t peer dest
    end
    else if t.config.Config.mrai_on_withdrawals then begin
      if timer_idle t peer dest then begin
        ignore (flush_target t peer dest target);
        after_send t peer dest
      end
      else pend t peer dest
    end
    else begin
      (* RFC behaviour: withdrawals are not rate-limited. *)
      unpend t peer dest;
      send_withdraw t peer dest
    end
  end

(* Paper Section 5 "future work": apply a dynamic level change to running
   timers immediately (re-armed with the new interval from now) instead of
   waiting for their natural restart. *)
let rearm_running_timers t =
  let level = Mrai.level t.ebgp_controller in
  if level <> t.last_level then begin
    t.last_level <- level;
    if t.config.Config.dynamic_restart_timers then
      List.iter
        (fun peer ->
          if peer.up && peer.kind = Ebgp then
            match t.config.Config.mrai_mode with
            | Config.Per_peer ->
              if peer.timer_running then begin
                (match peer.timer_event with
                | Some ev -> Sched.cancel t.sched ev
                | None -> ());
                peer.timer_event <- None;
                peer.timer_running <- false;
                start_timer t peer
              end
            | Config.Per_dest ->
              let dests =
                List.sort Int.compare
                  (Int_table.fold (fun d _ acc -> d :: acc) peer.dest_timers [])
              in
              List.iter
                (fun d ->
                  (match Int_table.find_opt peer.dest_timers d with
                  | Some ev -> Sched.cancel t.sched ev
                  | None -> ());
                  Int_table.remove peer.dest_timers d;
                  start_dest_timer t peer d)
                dests)
        t.peer_states
  end

let reconsider t dest =
  if Rib.decide t.rib dest then begin
    t.rib_changes <- t.rib_changes + 1;
    (match t.on_rib_change with
    | Some f -> f dest (Sched.now t.sched)
    | None -> ());
    activity t;
    let offer = offer t dest in
    List.iter (fun peer -> schedule_export t peer dest offer) t.peer_states;
    remember t dest offer
  end

(* --- Flap damping (RFC 2439) -------------------------------------------- *)

(* A suppressed route is parked instead of installed; when its penalty
   decays below the reuse threshold it is installed as if freshly
   received. *)
let rec schedule_reuse_check t damping ~src ~dest =
  match Damping.reuse_time damping ~peer:src ~dest ~now:(Sched.now t.sched) with
  | None -> ()
  | Some time ->
    let delay = Float.max 0.001 (time -. Sched.now t.sched) in
    ignore
      (Sched.schedule t.sched ~delay (fun () ->
           if not t.failed then
             match Int_table.find_opt t.peers src with
             | Some peer when peer.up ->
               if Damping.is_suppressed damping ~peer:src ~dest ~now:(Sched.now t.sched)
               then schedule_reuse_check t damping ~src ~dest
               else begin
                 match Hashtbl.find_opt t.parked (src, dest) with
                 | Some (kind, path, cause) ->
                   Hashtbl.remove t.parked (src, dest);
                   Rib.set_in t.rib dest ~peer:src ~kind path;
                   (* The reuse timer fires on penalty decay, but the
                      announcement it releases was caused by the update
                      whose processing parked the route — thread that
                      cause through so damped paths attribute end to
                      end. *)
                   t.cur_cause <- cause;
                   reconsider t dest;
                   activity t
                 | None -> ()
               end
             | Some _ | None -> ()))

let apply_update_with_damping t damping peer ~src update =
  let now = Sched.now t.sched in
  match update with
  | Withdraw dest ->
    Damping.record_flap damping ~peer:src ~dest ~now ~kind:`Withdraw;
    Hashtbl.remove t.parked (src, dest);
    Rib.withdraw_in t.rib dest ~peer:src
  | Advertise { dest; path } ->
    Damping.record_flap damping ~peer:src ~dest ~now ~kind:`Update;
    if path_contains path t.asn then begin
      Hashtbl.remove t.parked (src, dest);
      Rib.withdraw_in t.rib dest ~peer:src
    end
    else if Damping.is_suppressed damping ~peer:src ~dest ~now then begin
      Hashtbl.replace t.parked (src, dest) (peer.kind, path, t.cur_cause);
      Rib.withdraw_in t.rib dest ~peer:src;
      schedule_reuse_check t damping ~src ~dest
    end
    else begin
      Hashtbl.remove t.parked (src, dest);
      Rib.set_in t.rib dest ~peer:src ~kind:peer.kind ?rel:peer.peer_rel path
    end

(* --- Input queue and processing ---------------------------------------- *)

let handle_work t (item : work Iq.item) =
  match item.payload with
  | Update_msg update -> (
    (* [find], not [find_opt]: no option is allocated per update. *)
    match Int_table.find t.peers item.src with
    | exception Not_found -> ()
    | peer ->
      if peer.up then begin
        (match t.damping with
        | Some damping -> apply_update_with_damping t damping peer ~src:item.src update
        | None -> (
          match update with
          | Advertise { dest; path } ->
            if path_contains path t.asn then
              (* Receiver-side loop detection: treat as implicit withdraw. *)
              Rib.withdraw_in t.rib dest ~peer:item.src
            else
              Rib.set_in t.rib dest ~peer:item.src ~kind:peer.kind ?rel:peer.peer_rel
                path
          | Withdraw dest -> Rib.withdraw_in t.rib dest ~peer:item.src));
        reconsider t (update_dest update)
      end)
  | Peer_down_msg ->
    (* Parked (suppressed) routes from the dead peer must go too; collect
       the stale keys first (mutating under iteration is unspecified)
       rather than copying the whole table. *)
    let stale =
      Hashtbl.fold
        (fun ((src, _) as k) _ acc -> if src = item.src then k :: acc else acc)
        t.parked []
    in
    List.iter (Hashtbl.remove t.parked) stale;
    List.iter (reconsider t) (Rib.drop_peer t.rib ~peer:item.src)
  | Peer_up_msg -> (
    match Int_table.find_opt t.peers item.src with
    | None -> ()
    | Some peer ->
      if peer.up then begin
        (* Session re-establishment: both sides start from a clean slate
           (whatever survived the down/up race is dropped) and re-announce
           their full table, exactly like a real BGP session reset.  The
           Adj-RIB-Out towards the peer was cleared at [peer_up] time, so
           every current best route exports as a fresh advertisement,
           gated by the MRAI as usual. *)
        let stale =
          Hashtbl.fold
            (fun ((src, _) as k) _ acc -> if src = item.src then k :: acc else acc)
            t.parked []
        in
        List.iter (Hashtbl.remove t.parked) stale;
        List.iter (reconsider t) (Rib.drop_peer t.rib ~peer:item.src);
        Rib.iter_dests t.rib (fun d -> schedule_export t peer d (offer t d))
      end)

let rec begin_next t =
  match Iq.pop t.input with
  | None -> t.busy <- false
  | Some item ->
    t.busy <- true;
    let delay = Dist.sample t.config.Config.processing_delay t.rng in
    ignore (Sched.schedule t.sched ~delay (fun () -> complete t item delay))

and complete t item delay =
  if not t.failed then begin
    if t.adaptive then begin
      roll_window t;
      t.busy_in_window <- t.busy_in_window +. delay
    end;
    t.msgs_processed <- t.msgs_processed + 1;
    (match t.tracer with
    | Some tr ->
      t.cur_cause <-
        tr.on_processed ~router:t.id ~src:item.src ~dest:item.dest
          ~enqueued:item.enqueued
          ~started:(Sched.now t.sched -. delay)
          ~cause:item.cause
    | None -> ());
    handle_work t item;
    observe_load t;
    if t.adaptive then rearm_running_timers t;
    activity t;
    begin_next t
  end

let enqueue t ?(cause = -1) ~src ~dest work =
  if not t.failed then begin
    if t.adaptive then begin
      roll_window t;
      (match work with
      | Update_msg _ -> t.msgs_in_window <- t.msgs_in_window + 1
      | _ -> ())
    end;
    Iq.push t.input { Iq.src; dest; payload = work; cause; enqueued = Sched.now t.sched };
    observe_load t;
    if t.adaptive then rearm_running_timers t;
    if not t.busy then begin_next t
  end

let receive t ?cause ~src update =
  enqueue t ?cause ~src ~dest:(update_dest update) (Update_msg update)

let cancel_peer_timers t peer =
  (match peer.timer_event with
  | Some ev ->
    Sched.cancel t.sched ev;
    peer.timer_event <- None;
    peer.timer_running <- false
  | None -> ());
  Int_table.iter (fun _ ev -> Sched.cancel t.sched ev) peer.dest_timers;
  Int_table.reset peer.dest_timers

let peer_down t ?cause peer_id =
  if not t.failed then
    match Int_table.find_opt t.peers peer_id with
    | None -> ()
    | Some peer ->
      if peer.up then begin
        peer.up <- false;
        cancel_peer_timers t peer;
        clear_pending peer;
        enqueue t ?cause ~src:peer_id ~dest:(-1) Peer_down_msg
      end

let peer_up t ?cause peer_id =
  if not t.failed then
    match Int_table.find_opt t.peers peer_id with
    | None -> ()
    | Some peer ->
      if not peer.up then begin
        peer.up <- true;
        (* Forget the Adj-RIB-Out now: the peer lost everything we ever
           sent when its side processed the session drop, so the re-sync
           (the queued [Peer_up_msg]) must re-advertise from scratch. *)
        Array.fill peer.advertised 0 (Array.length peer.advertised) Path.absent;
        clear_pending peer;
        enqueue t ?cause ~src:peer_id ~dest:(-1) Peer_up_msg
      end

let start t =
  List.iter
    (fun dest ->
      Rib.originate t.rib dest;
      reconsider t dest)
    (Config.dests_of_as t.config ~asn:t.asn)

(* Churn entry points: a locally-originated prefix comes or goes at the
   current simulated time, threaded through the normal decision process
   (so exports, MRAI pacing and tracing behave exactly as for a learned
   route change).  [cause] is the Trace.Fault root the churn installer
   recorded for this op. *)
let announce_origin t ?(cause = -1) dest =
  if not t.failed then begin
    t.cur_cause <- cause;
    Rib.originate t.rib dest;
    reconsider t dest;
    t.cur_cause <- -1
  end

let withdraw_origin t ?(cause = -1) dest =
  if not t.failed then begin
    t.cur_cause <- cause;
    Rib.unoriginate t.rib dest;
    reconsider t dest;
    t.cur_cause <- -1
  end

let warm_install t ~dest ~local ~entries ~advertised =
  if local then Rib.originate t.rib dest;
  List.iter (fun (peer, kind, path) -> Rib.set_in t.rib dest ~peer ~kind path) entries;
  ignore (Rib.decide t.rib dest);
  List.iter
    (fun (peer_id, path) ->
      match Int_table.find_opt t.peers peer_id with
      | Some peer -> set_advertised peer dest path
      | None -> invalid_arg "Router.warm_install: unknown peer")
    advertised

let advertised_to t ~peer dest =
  match Int_table.find_opt t.peers peer with
  | None -> None
  | Some p ->
    let path = advertised p dest in
    if path == Path.absent then None else Some path

let fail t =
  if not t.failed then begin
    t.failed <- true;
    t.busy <- false;
    Iq.clear t.input;
    List.iter (cancel_peer_timers t) t.peer_states
  end

(* --- Inspection --------------------------------------------------------- *)

let best_path_to t dest = Rib.best_path t.rib dest
let max_unfinished_work t = t.max_unfinished_work

(* Point-in-time probe readouts (telemetry samplers). *)
let unfinished_work t = float_of_int (Iq.length t.input) *. t.mean_proc
let mrai_level t = Mrai.level t.ebgp_controller
let mrai_transitions t = Mrai.transitions t.ebgp_controller
let rib_size t = Rib.loc_size t.rib
let rib_changes t = t.rib_changes

let next_hop t dest =
  match Rib.best t.rib dest with
  | None -> None
  | Some Rib.Local -> Some t.id
  | Some (Rib.Learned e) -> Some e.peer

type metrics = {
  adverts_sent : int;
  withdrawals_sent : int;
  msgs_processed : int;
  eliminated : int;
  max_queue : int;
  mrai_transitions : int;
  mrai_level : int;
  damping_suppressions : int;
}

let metrics (t : t) =
  {
    adverts_sent = t.adverts_sent;
    withdrawals_sent = t.withdrawals_sent;
    msgs_processed = t.msgs_processed;
    eliminated = Iq.eliminated t.input;
    max_queue = Iq.max_length t.input;
    mrai_transitions = Mrai.transitions t.ebgp_controller;
    mrai_level = Mrai.level t.ebgp_controller;
    damping_suppressions =
      (match t.damping with None -> 0 | Some d -> Damping.suppressions d);
  }
