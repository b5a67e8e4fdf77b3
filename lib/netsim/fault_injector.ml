module Sched = Bgp_engine.Scheduler
module Rng = Bgp_engine.Rng
module Topology = Bgp_topology.Topology
module Failure = Bgp_topology.Failure

type fault =
  | Partition of { side : int list; heal_after : float }
  | Session_reset of { u : int; v : int; recover_after : float }
  | Gray_link of { u : int; v : int; loss : float; duration : float }
  | Link_jitter of { u : int; v : int; factor : float; duration : float }
  | Clock_skew of { router : int; skew : float }

type event = { at : float; fault : fault }
type schedule = event list

let kind_of_fault = function
  | Partition _ -> "partition"
  | Session_reset _ -> "session_reset"
  | Gray_link _ -> "gray_link"
  | Link_jitter _ -> "link_jitter"
  | Clock_skew _ -> "clock_skew"

let kinds schedule =
  List.sort_uniq String.compare (List.map (fun e -> kind_of_fault e.fault) schedule)

let pp_fault ppf = function
  | Partition { side; heal_after } ->
    Fmt.pf ppf "partition [%a] heal %.3f" Fmt.(list ~sep:comma int) side heal_after
  | Session_reset { u; v; recover_after } ->
    Fmt.pf ppf "session_reset %d-%d recover %.3f" u v recover_after
  | Gray_link { u; v; loss; duration } ->
    Fmt.pf ppf "gray_link %d-%d loss %.3f for %.3f" u v loss duration
  | Link_jitter { u; v; factor; duration } ->
    Fmt.pf ppf "link_jitter %d-%d x%.3f for %.3f" u v factor duration
  | Clock_skew { router; skew } -> Fmt.pf ppf "clock_skew %d +%.4f" router skew

let pp_event ppf e = Fmt.pf ppf "@[+%.3f %a@]" e.at pp_fault e.fault

(* --- Validation ---------------------------------------------------------- *)

let validate ~n ~horizon schedule =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let check_router r = r >= 0 && r < n in
  let check_link u v = check_router u && check_router v && u < v in
  let rec go prev = function
    | [] -> Ok ()
    | { at; fault } :: rest ->
      if at < prev then err "events not sorted: %.3f after %.3f" at prev
      else if at < 0.0 then err "event predates t_fail: %.3f" at
      else if at > horizon then err "event past horizon: %.3f > %.3f" at horizon
      else (
        match fault with
        | Partition { side; heal_after } ->
          if side = [] then err "partition: empty side"
          else if List.length side >= n then err "partition: side covers the network"
          else if not (List.for_all check_router side) then
            err "partition: router out of range"
          else if List.sort_uniq Int.compare side <> side then
            err "partition: side not sorted-unique"
          else if heal_after <= 0.0 then err "partition: must heal (heal_after <= 0)"
          else if at +. heal_after > horizon then
            err "partition: heals past horizon (%.3f)" (at +. heal_after)
          else go at rest
        | Session_reset { u; v; recover_after } ->
          if not (check_link u v) then err "session_reset: bad link %d-%d" u v
          else if recover_after <= 0.0 then err "session_reset: recover_after <= 0"
          else if at +. recover_after > horizon then
            err "session_reset: recovers past horizon"
          else go at rest
        | Gray_link { u; v; loss; duration } ->
          if not (check_link u v) then err "gray_link: bad link %d-%d" u v
          else if not (loss > 0.0 && loss < 1.0) then
            err "gray_link: loss %.3f outside (0, 1)" loss
          else if duration <= 0.0 then err "gray_link: duration <= 0"
          else if at +. duration > horizon then err "gray_link: heals past horizon"
          else go at rest
        | Link_jitter { u; v; factor; duration } ->
          if not (check_link u v) then err "link_jitter: bad link %d-%d" u v
          else if factor <= 0.0 then err "link_jitter: factor <= 0"
          else if duration <= 0.0 then err "link_jitter: duration <= 0"
          else if at +. duration > horizon then err "link_jitter: ends past horizon"
          else go at rest
        | Clock_skew { router; skew } ->
          if not (check_router router) then err "clock_skew: router out of range"
          else if skew < 0.0 then err "clock_skew: negative skew"
          else go at rest)
  in
  go 0.0 schedule

(* --- Seed-derived generation --------------------------------------------- *)

(* Contiguous partition side: a BFS ball of [size] surviving routers over
   the session graph, from a random surviving start.  Adjacency lists are
   sorted and the queue is FIFO, so the ball is a pure function of the
   RNG draw. *)
let bfs_side ~rng ~n ~links ~survivors ~size =
  let adj = Array.make n [] in
  List.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    links;
  Array.iteri (fun i l -> adj.(i) <- List.sort Int.compare l) adj;
  let start = Rng.choose rng (Array.of_list survivors) in
  let seen = Array.make n false in
  seen.(start) <- true;
  let queue = Queue.create () in
  Queue.add start queue;
  let side = ref [] in
  let count = ref 0 in
  while !count < size && not (Queue.is_empty queue) do
    let r = Queue.pop queue in
    side := r :: !side;
    incr count;
    List.iter
      (fun peer ->
        if not seen.(peer) then begin
          seen.(peer) <- true;
          Queue.add peer queue
        end)
      adj.(r)
  done;
  List.sort Int.compare !side

let generate ~rng ~topo ~failure ?(max_events = 5) ~horizon () =
  let n = Topology.num_routers topo in
  let survivors = Failure.survivors failure in
  let link_order u v = if u <= v then (u, v) else (v, u) in
  let live_links =
    List.filter_map
      (fun (u, v, _) ->
        if Failure.is_failed failure u || Failure.is_failed failure v then None
        else Some (link_order u v))
      (Network.sessions_of_topology topo)
  in
  let links = Array.of_list live_links in
  if survivors = [] || horizon <= 0.0 then []
  else begin
    let onset () = Rng.uniform rng ~lo:0.0 ~hi:(horizon *. 0.5) in
    (* Durations fit inside the horizon so every fault that must heal
       does ([validate] enforces it; the property tests pin it). *)
    let span at lo cap =
      let hi = Float.min cap (horizon -. at) in
      Rng.uniform rng ~lo:(Float.min lo hi) ~hi
    in
    let pick_link () = links.(Rng.int rng (Array.length links)) in
    (* [at] is the event's FINAL onset: correlated companions get their
       shifted onset before drawing, so spans always fit the horizon. *)
    let fault_at at =
      let fault =
        if Array.length links = 0 then
          (* Degenerate survivor set (no live sessions): only router-local
             faults remain expressible. *)
          Clock_skew
            {
              router = Rng.choose rng (Array.of_list survivors);
              skew = Rng.uniform rng ~lo:0.001 ~hi:0.02;
            }
        else (
          match Rng.int rng 5 with
          | 0 ->
            let max_side = Stdlib.max 1 (List.length survivors / 3) in
            let size = 1 + Rng.int rng max_side in
            let side = bfs_side ~rng ~n ~links:live_links ~survivors ~size in
            Partition { side; heal_after = span at 0.25 4.0 }
          | 1 ->
            let u, v = pick_link () in
            Session_reset { u; v; recover_after = span at 0.1 2.0 }
          | 2 ->
            let u, v = pick_link () in
            Gray_link
              {
                u;
                v;
                loss = Rng.uniform rng ~lo:0.05 ~hi:0.5;
                duration = span at 0.25 4.0;
              }
          | 3 ->
            let u, v = pick_link () in
            Link_jitter
              {
                u;
                v;
                factor = Rng.uniform rng ~lo:0.25 ~hi:4.0;
                duration = span at 0.25 4.0;
              }
          | _ ->
            Clock_skew
              {
                router = Rng.choose rng (Array.of_list survivors);
                skew = Rng.uniform rng ~lo:0.001 ~hi:0.02;
              })
      in
      { at; fault }
    in
    let one_fault () = fault_at (onset ()) in
    let n_events = 1 + Rng.int rng (Stdlib.max 1 max_events) in
    let base = List.init n_events (fun _ -> one_fault ()) in
    (* Correlated bursts: some events spawn a companion shortly after —
       the multi-event schedules the paper's single-shot failure model
       never exercises. *)
    let correlated =
      List.concat_map
        (fun e ->
          if Rng.float rng < 0.25 && e.at +. 0.05 <= horizon *. 0.5 then
            [ e; fault_at (e.at +. Rng.uniform rng ~lo:0.005 ~hi:0.05) ]
          else [ e ])
        base
    in
    List.stable_sort (fun a b -> Float.compare a.at b.at) correlated
  end

(* --- Shrinking ----------------------------------------------------------- *)

(* Structure-preserving shrinks: every candidate is a valid schedule
   whenever the input was (subsets keep sortedness; the per-fault
   mutations shrink strictly positive spans towards smaller strictly
   positive spans).  Used by the QCheck shrinker and as the final
   polish pass after ddmin. *)
let shrink_fault = function
  | Partition { side; heal_after } ->
    let halves =
      match side with
      | [] | [ _ ] -> []
      | side ->
        let k = (List.length side + 1) / 2 in
        [ Partition { side = List.filteri (fun i _ -> i < k) side; heal_after } ]
    in
    halves
    @ (if heal_after > 0.01 then [ Partition { side; heal_after = heal_after /. 2.0 } ]
       else [])
  | Session_reset { u; v; recover_after } ->
    if recover_after > 0.01 then
      [ Session_reset { u; v; recover_after = recover_after /. 2.0 } ]
    else []
  | Gray_link { u; v; loss; duration } ->
    (if loss > 0.01 then [ Gray_link { u; v; loss = loss /. 2.0; duration } ] else [])
    @
    if duration > 0.01 then [ Gray_link { u; v; loss; duration = duration /. 2.0 } ]
    else []
  | Link_jitter { u; v; factor; duration } ->
    (if Float.abs (factor -. 1.0) > 0.01 then
       [ Link_jitter { u; v; factor = (factor +. 1.0) /. 2.0; duration } ]
     else [])
    @
    if duration > 0.01 then [ Link_jitter { u; v; factor; duration = duration /. 2.0 } ]
    else []
  | Clock_skew { router; skew } ->
    if skew > 0.0005 then [ Clock_skew { router; skew = skew /. 2.0 } ] else []

let shrink schedule =
  let drops =
    List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) schedule) schedule
  in
  let mutations =
    List.concat
      (List.mapi
         (fun i e ->
           List.map
             (fun fault ->
               List.mapi (fun j e' -> if i = j then { e' with fault } else e') schedule)
             (shrink_fault e.fault))
         schedule)
  in
  drops @ mutations

(* --- JSON ---------------------------------------------------------------- *)

module J = Json_lite

let fault_fields = function
  | Partition { side; heal_after } ->
    [
      ("kind", J.Str "partition");
      ("side", J.Arr (List.map J.of_int side));
      ("heal_after", J.of_float heal_after);
    ]
  | Session_reset { u; v; recover_after } ->
    [
      ("kind", J.Str "session_reset");
      ("u", J.of_int u);
      ("v", J.of_int v);
      ("recover_after", J.of_float recover_after);
    ]
  | Gray_link { u; v; loss; duration } ->
    [
      ("kind", J.Str "gray_link");
      ("u", J.of_int u);
      ("v", J.of_int v);
      ("loss", J.of_float loss);
      ("duration", J.of_float duration);
    ]
  | Link_jitter { u; v; factor; duration } ->
    [
      ("kind", J.Str "link_jitter");
      ("u", J.of_int u);
      ("v", J.of_int v);
      ("factor", J.of_float factor);
      ("duration", J.of_float duration);
    ]
  | Clock_skew { router; skew } ->
    [ ("kind", J.Str "clock_skew"); ("router", J.of_int router); ("skew", J.of_float skew) ]

let to_json schedule =
  J.Arr (List.map (fun e -> J.Obj (("at", J.of_float e.at) :: fault_fields e.fault)) schedule)

(* --- Installation -------------------------------------------------------- *)

let lookahead ~link_delay schedule =
  let min_factor =
    List.fold_left
      (fun acc e ->
        match e.fault with
        | Link_jitter { factor; _ } -> Float.min acc factor
        | Partition _ | Session_reset _ | Gray_link _ | Clock_skew _ -> acc)
      1.0 schedule
  in
  Float.max 1e-6 (link_delay *. Float.min 1.0 min_factor)

let representative = function
  | Partition { side; _ } -> ( match side with r :: _ -> r | [] -> 0)
  | Session_reset { u; _ } | Gray_link { u; _ } | Link_jitter { u; _ } -> u
  | Clock_skew { router; _ } -> router

(* Event [e]'s effect on shard [shard]'s replica of the fault tables, and
   its heal scheduled on the same shard.  Onset and heal carry
   preassigned trace ids, so a heal can cause-chain to its onset from any
   shard. *)
let apply_replica net ~shard e ~onset_id ~heal_id =
  let sched = Network.shard_sched net shard in
  let record ~id ~label ~cause =
    Network.record_fault net ~shard ~id ~label ~router:(representative e.fault) ~cause
  in
  let on_heal delay ~label f =
    ignore
      (Sched.schedule sched ~delay (fun () ->
           Network.note_replica net ~shard;
           record ~id:heal_id ~label ~cause:onset_id;
           f ()))
  in
  record ~id:onset_id ~label:(kind_of_fault e.fault) ~cause:Trace.no_cause;
  match e.fault with
  | Partition { side; heal_after } ->
    let side_arr = Array.make (Network.num_routers net) false in
    List.iter (fun r -> side_arr.(r) <- true) side;
    (* The cut-set is computed at onset and reused at heal time, so we
       restore exactly the links we severed even if the network changed
       in between. *)
    let cut = Network.cross_sessions net ~side:side_arr in
    List.iter (fun (u, v) -> Network.sever_link net ~shard ~cause:onset_id ~u ~v) cut;
    on_heal heal_after ~label:"partition_heal" (fun () ->
        List.iter (fun (u, v) -> Network.restore_link net ~shard ~cause:heal_id ~u ~v) cut)
  | Session_reset { u; v; recover_after } ->
    Network.sever_link net ~shard ~cause:onset_id ~u ~v;
    on_heal recover_after ~label:"session_recover" (fun () ->
        Network.restore_link net ~shard ~cause:heal_id ~u ~v)
  | Gray_link { u; v; loss; duration } ->
    Network.set_link_loss net ~shard ~u ~v loss;
    on_heal duration ~label:"gray_heal" (fun () ->
        Network.set_link_loss net ~shard ~u ~v 0.0)
  | Link_jitter { u; v; factor; duration } ->
    Network.set_link_factor net ~shard ~u ~v factor;
    on_heal duration ~label:"jitter_end" (fun () ->
        Network.set_link_factor net ~shard ~u ~v 1.0)
  | Clock_skew { router; skew } -> Network.set_clock_skew net ~shard ~router skew

let install net ~t_fail schedule =
  if not (Network.faults_enabled net) then
    invalid_arg "Fault_injector.install: call Network.enable_faults first";
  (* Every shard executes every fault event at the same time, mutating
     only its replica tables; [note_replica] lets the executed-events
     count normalize the k-fold duplication away. *)
  List.iteri
    (fun idx e ->
      let onset_id = Network.first_root_id + (2 * idx) in
      let heal_id = onset_id + 1 in
      for s = 0 to Network.shard_count net - 1 do
        ignore
          (Sched.schedule_at (Network.shard_sched net s) ~time:(t_fail +. e.at) (fun () ->
               Network.note_replica net ~shard:s;
               apply_replica net ~shard:s e ~onset_id ~heal_id))
      done)
    schedule
