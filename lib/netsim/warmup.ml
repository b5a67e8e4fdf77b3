module Heap = Bgp_engine.Heap
module Topology = Bgp_topology.Topology
module Types = Bgp_proto.Types
module Rib = Bgp_proto.Rib
module Export = Bgp_proto.Export
module Router = Bgp_proto.Router

(* Session adjacency: for each router, its session peers with kinds. *)
let session_adjacency net =
  let n = Network.num_routers net in
  let adj = Array.make n [] in
  List.iter
    (fun (u, v, kind) ->
      adj.(u) <- (v, kind) :: adj.(u);
      adj.(v) <- (u, kind) :: adj.(v))
    (Network.sessions net);
  Array.map (List.sort compare) adj

type label = Local | Learned of Rib.entry

let best_of = function Local -> Rib.Local | Learned e -> Rib.Learned e

(* Settling order uses the same packed int key the live decision process
   compares (proven order-isomorphic to the reference tuple rank by the
   QCheck property in test_bgp). *)
let rank_of label = Rib.packed_rank (best_of label)

(* Dijkstra-style settling for one destination: ranks (path length, then
   eBGP-over-iBGP, then peer id) are strictly monotone along session
   edges, so settling in rank order computes the unique fixpoint of
   best(v) = min over peers p of import(export(best(p))). *)
let settle net adj ~config ~paths ~dest =
  let topo = Network.topology net in
  let n = Network.num_routers net in
  let origin = Bgp_proto.Config.origin_as config ~dest in
  let best : label option array = Array.make n None in
  let settled = Array.make n false in
  let heap =
    Heap.create ~cmp:(fun ((ra : int), _, _) ((rb : int), _, _) -> Int.compare ra rb)
  in
  for r = 0 to n - 1 do
    if topo.Topology.as_of_router.(r) = origin then begin
      best.(r) <- Some Local;
      Heap.push heap (rank_of Local, r, Local)
    end
  done;
  let relax v label =
    let own_as = topo.Topology.as_of_router.(v) in
    List.iter
      (fun (u, kind) ->
        let peer_as = topo.Topology.as_of_router.(u) in
        match
          Export.target ~paths ~config ~own_as ~peer_kind:kind ~peer_as
            ~best:(Some (best_of label)) ()
        with
        | None -> ()
        | Some path ->
          if not (Types.path_contains path peer_as) then begin
            let candidate = Learned { Rib.peer = v; kind; path; rel = None } in
            let better =
              match best.(u) with
              | None -> true
              | Some current -> rank_of candidate < rank_of current
            in
            if better && not settled.(u) then begin
              best.(u) <- Some candidate;
              Heap.push heap (rank_of candidate, u, candidate)
            end
          end)
      adj.(v)
  in
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (_, v, label) ->
      if not settled.(v) then begin
        settled.(v) <- true;
        (* Only the currently-best label settles; stale heap entries are
           skipped by the settled check. *)
        (match best.(v) with
        | Some current when rank_of current = rank_of label -> relax v label
        | _ -> ());
        drain ()
      end
      else drain ()
  in
  drain ();
  best

(* At one shard, settle straight into the routers' own table.  With more
   shards the settling pass is orchestrator-side and must not touch any
   shard's table: it interns into a scratch table and [install] rehomes
   each kept path into its owner's. *)
let settle_table net =
  if Network.shard_count net = 1 then Network.paths net else Bgp_proto.Path.create_table ()

let install net =
  if Network.relationships net <> None then
    invalid_arg
      "Warmup.install: analytic warm-up supports only policy-free operation; \
       use a simulated warm-up with Gao-Rexford relationships";
  let topo = Network.topology net in
  let n = Network.num_routers net in
  let adj = session_adjacency net in
  let config = Network.bgp_config net in
  let paths = settle_table net in
  (* Every path a router keeps must live in its own shard's interning
     table (rank keys are structural, so rehoming changes no decision). *)
  let rehome =
    if Network.shard_count net = 1 then fun _ p -> p
    else fun u p -> Bgp_proto.Path.of_list (Network.paths_for net u) (Bgp_proto.Path.hops p)
  in
  Bgp_proto.Config.iter_active_dests config ~n_ases:topo.Topology.n_ases @@ fun dest ->
    let best = settle net adj ~config ~paths ~dest in
    let origin = Bgp_proto.Config.origin_as config ~dest in
    (* Adj-RIB-In of u from peer p = p's export; Adj-RIB-Out of p toward u
       likewise — both derive from the settled selections through the same
       export function the live router uses. *)
    for u = 0 to n - 1 do
      let own_as = topo.Topology.as_of_router.(u) in
      let entries = ref [] and advertised = ref [] in
      List.iter
        (fun (p, kind) ->
          let peer_as = topo.Topology.as_of_router.(p) in
          (* What p tells u (import side). *)
          (match
             Export.target ~paths ~config ~own_as:peer_as ~peer_kind:kind
               ~peer_as:own_as ~best:(Option.map best_of best.(p)) ()
           with
          | Some path when not (Types.path_contains path own_as) ->
            entries := (p, kind, rehome u path) :: !entries
          | Some _ | None -> ());
          (* What u told p (export side). *)
          match
            Export.target ~paths ~config ~own_as ~peer_kind:kind ~peer_as
              ~best:(Option.map best_of best.(u)) ()
          with
          | Some path -> advertised := (p, rehome u path) :: !advertised
          | None -> ())
        adj.(u);
      Router.warm_install (Network.router net u) ~dest
        ~local:(own_as = origin) ~entries:!entries ~advertised:!advertised
    done
