module Sched = Bgp_engine.Scheduler
module Rng = Bgp_engine.Rng
module Topology = Bgp_topology.Topology
module Config = Bgp_proto.Config
module Router = Bgp_proto.Router

type op = Announce | Withdraw
type event = { at : float; router : int; dest : int; op : op }
type schedule = event list

type workload =
  | Poisson of { rate : float; duration : float; prefixes : int }
  | Flap_storm of { prefixes : int; flaps : int; hold : float; spread : float }
  | Staged_failover of { stages : int; gap : float; prefixes : int }

let kind_of_workload = function
  | Poisson _ -> "poisson"
  | Flap_storm _ -> "flap_storm"
  | Staged_failover _ -> "staged_failover"

let op_label = function Announce -> "announce" | Withdraw -> "withdraw"

(* The Trace.Fault label of a churn root. *)
let trace_label = function
  | Announce -> "churn_announce"
  | Withdraw -> "churn_withdraw"

let pp_event ppf e =
  Fmt.pf ppf "@[+%.3f %s router %d dest %d@]" e.at (op_label e.op) e.router e.dest

let horizon schedule = List.fold_left (fun acc e -> Float.max acc e.at) 0.0 schedule

(* --- Validation ---------------------------------------------------------- *)

let validate ~config ~topo ~horizon schedule =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let nr = Topology.num_routers topo in
  let universe = Config.num_dests config ~n_ases:topo.Topology.n_ases in
  (* (router, dest) pairs currently withdrawn; ops must alternate starting
     from the announced steady state and end all-announced, so the
     quiesced network re-converges to a checkable fixpoint. *)
  let withdrawn : (int * int, unit) Hashtbl.t = Hashtbl.create 97 in
  let rec go prev = function
    | [] ->
      if Hashtbl.length withdrawn > 0 then
        err "%d prefixes left withdrawn at end of schedule" (Hashtbl.length withdrawn)
      else Ok ()
    | { at; router; dest; op } :: rest ->
      if at < prev then err "events not sorted: %.3f after %.3f" at prev
      else if at < 0.0 then err "event predates t_fail: %.3f" at
      else if at > horizon then err "event past horizon: %.3f > %.3f" at horizon
      else if router < 0 || router >= nr then err "router %d out of range" router
      else if dest < 0 || dest >= universe then err "dest %d out of range" dest
      else if topo.Topology.as_of_router.(router) <> Config.origin_as config ~dest then
        err "router %d does not originate dest %d" router dest
      else if not (Config.dest_active config ~dest) then
        err "dest %d is sampled out" dest
      else begin
        let key = (router, dest) in
        match op with
        | Withdraw ->
          if Hashtbl.mem withdrawn key then
            err "double withdraw of dest %d at router %d" dest router
          else begin
            Hashtbl.add withdrawn key ();
            go at rest
          end
        | Announce ->
          if not (Hashtbl.mem withdrawn key) then
            err "announce of already-announced dest %d at router %d" dest router
          else begin
            Hashtbl.remove withdrawn key;
            go at rest
          end
      end
  in
  go 0.0 schedule

(* --- Generation ---------------------------------------------------------- *)

(* Seeded (router, dest) targets: [prefixes] distinct active destinations
   by partial Fisher-Yates, each paired with one originating router of its
   origin AS.  Sorted by dest so closing sweeps are deterministic. *)
let target_pool ~rng ~config ~topo ~prefixes =
  if prefixes < 1 then invalid_arg "Churn.generate: prefixes must be >= 1";
  let n_ases = topo.Topology.n_ases in
  let active =
    match config.Config.dest_sample with
    | Some s -> Array.copy s
    | None -> Array.init (Config.num_dests config ~n_ases) Fun.id
  in
  let k = min prefixes (Array.length active) in
  for i = 0 to k - 1 do
    let j = i + Rng.int rng (Array.length active - i) in
    let tmp = active.(i) in
    active.(i) <- active.(j);
    active.(j) <- tmp
  done;
  let pool = Array.sub active 0 k in
  Array.sort Int.compare pool;
  let routers_of_as = Array.make n_ases [] in
  for r = Topology.num_routers topo - 1 downto 0 do
    let a = topo.Topology.as_of_router.(r) in
    routers_of_as.(a) <- r :: routers_of_as.(a)
  done;
  Array.map
    (fun dest ->
      let origin = Config.origin_as config ~dest in
      let routers = Array.of_list routers_of_as.(origin) in
      (Rng.choose rng routers, dest))
    pool

let exp_draw rng ~rate = -.log (1.0 -. Rng.float rng) /. rate

let generate ~rng ~config ~topo workload =
  match workload with
  | Poisson { rate; duration; prefixes } ->
    if rate <= 0.0 then invalid_arg "Churn.generate: rate must be positive";
    if duration <= 0.0 then invalid_arg "Churn.generate: duration must be positive";
    let pool = target_pool ~rng ~config ~topo ~prefixes in
    let withdrawn = Array.make (Array.length pool) false in
    let events = ref [] in
    let t = ref (exp_draw rng ~rate) in
    while !t < duration do
      let i = Rng.int rng (Array.length pool) in
      let router, dest = pool.(i) in
      let op = if withdrawn.(i) then Announce else Withdraw in
      withdrawn.(i) <- not withdrawn.(i);
      events := { at = !t; router; dest; op } :: !events;
      t := !t +. exp_draw rng ~rate
    done;
    (* Close every open flap at the horizon so the schedule quiesces with
       all prefixes re-announced. *)
    let closing = ref [] in
    Array.iteri
      (fun i open_flap ->
        if open_flap then begin
          let router, dest = pool.(i) in
          closing := { at = duration; router; dest; op = Announce } :: !closing
        end)
      withdrawn;
    List.rev_append !events (List.rev !closing)
  | Flap_storm { prefixes; flaps; hold; spread } ->
    if flaps < 1 then invalid_arg "Churn.generate: flaps must be >= 1";
    if hold <= 0.0 then invalid_arg "Churn.generate: hold must be positive";
    if spread < 0.0 then invalid_arg "Churn.generate: spread must be >= 0";
    let pool = target_pool ~rng ~config ~topo ~prefixes in
    let events = ref [] in
    Array.iter
      (fun (router, dest) ->
        let start = if spread > 0.0 then Rng.uniform rng ~lo:0.0 ~hi:spread else 0.0 in
        for j = 0 to flaps - 1 do
          let base = start +. (float_of_int j *. 2.0 *. hold) in
          events := { at = base; router; dest; op = Withdraw } :: !events;
          events := { at = base +. hold; router; dest; op = Announce } :: !events
        done)
      pool;
    List.stable_sort (fun a b -> Float.compare a.at b.at) (List.rev !events)
  | Staged_failover { stages; gap; prefixes } ->
    if stages < 1 then invalid_arg "Churn.generate: stages must be >= 1";
    if gap <= 0.0 then invalid_arg "Churn.generate: gap must be positive";
    let pool = target_pool ~rng ~config ~topo ~prefixes in
    let k = Array.length pool in
    let events = ref [] in
    Array.iteri
      (fun i (router, dest) ->
        let stage = i * stages / k in
        let t0 = float_of_int stage *. gap in
        events := { at = t0; router; dest; op = Withdraw } :: !events;
        events := { at = t0 +. (gap /. 2.0); router; dest; op = Announce } :: !events)
      pool;
    List.stable_sort (fun a b -> Float.compare a.at b.at) (List.rev !events)

(* Heavy-tailed per-AS prefix counts: a discretized bounded Pareto with
   mean steered by rejection-free clamping — most ASes originate one or a
   few prefixes, a fat tail originates up to [max_prefixes]. *)
let prefix_counts ~rng ~n_ases ~mean ~max_prefixes =
  if n_ases < 1 then invalid_arg "Churn.prefix_counts: n_ases must be >= 1";
  if max_prefixes < 1 then invalid_arg "Churn.prefix_counts: max_prefixes must be >= 1";
  if mean < 1.0 then invalid_arg "Churn.prefix_counts: mean must be >= 1";
  (* Pareto(alpha) on [1, inf): x = u^(-1/alpha); alpha from the target
     mean alpha/(alpha-1) = mean, floored at 1.05 for mean <= ~20. *)
  let alpha = if mean <= 1.05 then 20.0 else Float.max 1.05 (mean /. (mean -. 1.0)) in
  Array.init n_ases (fun _ ->
      let u = 1.0 -. Rng.float rng in
      let x = u ** (-1.0 /. alpha) in
      min max_prefixes (int_of_float x))

(* --- Shrinking ----------------------------------------------------------- *)

let shrink schedule =
  let candidates = ref [] in
  (* Drop one complete withdraw/announce cycle of one (router, dest): the
     remaining ops still alternate and still end announced. *)
  let arr = Array.of_list schedule in
  let open_w : (int * int, int) Hashtbl.t = Hashtbl.create 97 in
  Array.iteri
    (fun i e ->
      let key = (e.router, e.dest) in
      match e.op with
      | Withdraw -> Hashtbl.replace open_w key i
      | Announce -> (
        match Hashtbl.find_opt open_w key with
        | Some wi ->
          Hashtbl.remove open_w key;
          candidates := List.filteri (fun j _ -> j <> wi && j <> i) schedule :: !candidates
        | None -> ()))
    arr;
  (* Compress time: halving every onset preserves order and validity. *)
  if horizon schedule > 1e-3 then
    candidates := List.map (fun e -> { e with at = e.at /. 2.0 }) schedule :: !candidates;
  List.rev !candidates

(* --- JSON ---------------------------------------------------------------- *)

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let to_json schedule =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf {|{"at":%s,"op":"%s","router":%d,"dest":%d}|} (json_float e.at)
           (op_label e.op) e.router e.dest))
    schedule;
  Buffer.add_char buf ']';
  Buffer.contents buf

(* --- Installation -------------------------------------------------------- *)

(* Preassigned trace-id block, above [Fault_injector]'s (which starts at
   [Network.first_root_id]) so a chaotic churn trial can carry both root
   families. *)
let churn_id_base = 2 * Network.first_root_id

let install net ~t_fail schedule =
  List.iteri
    (fun idx e ->
      let id = churn_id_base + idx in
      let shard = Network.owner_of net e.router in
      let sched = Network.shard_sched net shard in
      ignore
        (Sched.schedule_at sched ~time:(t_fail +. e.at) (fun () ->
             Network.record_fault net ~shard ~id ~label:(trace_label e.op)
               ~router:e.router ~cause:Trace.no_cause;
             let router = Network.router net e.router in
             match e.op with
             | Announce -> Router.announce_origin router ~cause:id e.dest
             | Withdraw -> Router.withdraw_origin router ~cause:id e.dest)))
    schedule

(* --- Steady-state monitor ------------------------------------------------- *)

type monitor = {
  t0 : float;
  window : float;
  settle : float array array;  (** per shard: last Loc-RIB revision time per dest *)
  mutable samples : (float * int) list;  (** (time, cumulative msgs), newest first *)
  baseline_msgs : int;
}

let monitor net ~t0 ~window =
  if window <= 0.0 then invalid_arg "Churn.monitor: window must be positive";
  let topo = Network.topology net in
  let config = Network.bgp_config net in
  let universe = Config.num_dests config ~n_ases:topo.Topology.n_ases in
  (* One slab per shard: each domain writes only its own rows, and the
     end-of-run fold takes the max across shards — layout-free. *)
  let settle =
    Array.init (Network.shard_count net) (fun _ -> Array.make universe neg_infinity)
  in
  let m =
    {
      t0;
      window;
      settle;
      samples = [];
      baseline_msgs = (Network.sum_metrics net).Router.msgs_processed;
    }
  in
  for r = 0 to Network.num_routers net - 1 do
    let slot = settle.(Network.owner_of net r) in
    Router.set_rib_change_hook (Network.router net r) (fun dest time ->
        if time > slot.(dest) then slot.(dest) <- time)
  done;
  m

let sample m net ~now =
  m.samples <- (now, (Network.sum_metrics net).Router.msgs_processed) :: m.samples

type stats = {
  ops : int;
  workload_horizon : float;
  span : float;  (** t0 to the last route-affecting action *)
  updates_processed : int;
  sustained_rate : float;
  peak_window_rate : float;
  windows : int;
  queue_high_water : int;
  disturbed : int;
  unconverged : int;
  tails : Delay_hist.t;
  p50 : float;
  p95 : float;
  p99 : float;
}

(* A destination is unconverged if any surviving router's forwarding walk
   toward it loops or breaks mid-chain.  Routelessness is legitimate
   (partitions, dead origins) — only inconsistency counts. *)
let dest_converged net ~n dest =
  let ok = ref true in
  let rec follow current steps =
    if steps > n then false
    else if Network.is_failed net current then false
    else
      match Router.next_hop (Network.router net current) dest with
      | None -> false
      | Some hop when hop = current -> true
      | Some hop -> follow hop (steps + 1)
  in
  for r = 0 to n - 1 do
    if !ok && not (Network.is_failed net r) then
      match Router.next_hop (Network.router net r) dest with
      | None -> ()
      | Some _ -> if not (follow r 0) then ok := false
  done;
  !ok

let stats m net ~schedule ~last_activity =
  let ops = List.length schedule in
  let workload_horizon = horizon schedule in
  (* Last disturbance per destination (the schedule is sorted, so the
     final replace wins). *)
  let last_op : (int, float) Hashtbl.t = Hashtbl.create 997 in
  List.iter (fun e -> Hashtbl.replace last_op e.dest (m.t0 +. e.at)) schedule;
  let disturbed = Hashtbl.length last_op in
  let shards = Array.length m.settle in
  let settle_of dest =
    let best = ref neg_infinity in
    for s = 0 to shards - 1 do
      if m.settle.(s).(dest) > !best then best := m.settle.(s).(dest)
    done;
    !best
  in
  let tails = Delay_hist.create () in
  (* Hash iteration order varies, but histogram insertion commutes, so the
     result is deterministic. *)
  Hashtbl.iter
    (fun dest at ->
      let settle = settle_of dest in
      if settle > neg_infinity then Delay_hist.add tails (Float.max 0.0 (settle -. at)))
    last_op;
  let n = Network.num_routers net in
  let unconverged =
    Hashtbl.fold (fun dest _ acc -> if dest_converged net ~n dest then acc else acc + 1)
      last_op 0
  in
  let final_msgs = (Network.sum_metrics net).Router.msgs_processed in
  let updates_processed = final_msgs - m.baseline_msgs in
  let span = Float.max 0.0 (last_activity -. m.t0) in
  let sustained_rate = if span > 0.0 then float_of_int updates_processed /. span else 0.0 in
  let ordered = List.rev m.samples in
  let peak_window_rate, _, _ =
    List.fold_left
      (fun (peak, pt, pm) (t, msgs) ->
        let dt = t -. pt in
        let rate = if dt > 0.0 then float_of_int (msgs - pm) /. dt else 0.0 in
        (Float.max peak rate, t, msgs))
      (0.0, m.t0, m.baseline_msgs)
      ordered
  in
  {
    ops;
    workload_horizon;
    span;
    updates_processed;
    sustained_rate;
    peak_window_rate;
    windows = List.length ordered;
    queue_high_water = (Network.sum_metrics net).Router.max_queue;
    disturbed;
    unconverged;
    tails;
    p50 = Delay_hist.percentile tails 0.5;
    p95 = Delay_hist.percentile tails 0.95;
    p99 = Delay_hist.percentile tails 0.99;
  }
