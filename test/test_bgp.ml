(* Unit tests for the BGP protocol model: types, RIB/decision process, and
   router behaviour driven through a private scheduler harness. *)

module Sched = Bgp_engine.Scheduler
module Rng = Bgp_engine.Rng
module Types = Bgp_proto.Types
module Rib = Bgp_proto.Rib
module Config = Bgp_proto.Config
module Router = Bgp_proto.Router
module Mrai = Bgp_core.Mrai_controller

module Path = Bgp_proto.Path
module Export = Bgp_proto.Export

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* One path-counter table for the whole test binary: the fixtures'
   routers and the test-constructed updates count into it, as all
   routers of one simulation run count into the network's. *)
let tbl = Path.create_table ()
let p = Path.of_list tbl
let adv dest hops = Types.Advertise { dest; path = p hops }
let path_t = Alcotest.testable Path.pp Path.equal

(* --- Types ----------------------------------------------------------------- *)

let test_path_helpers () =
  checki "length" 3 (Types.path_length (p [ 1; 2; 3 ]));
  checki "empty length" 0 (Types.path_length Path.empty);
  checkb "contains" true (Types.path_contains (p [ 1; 2; 3 ]) 2);
  checkb "not contains" false (Types.path_contains (p [ 1; 2; 3 ]) 9);
  checki "update dest of advert" 7
    (Types.update_dest (adv 7 [ 1 ]));
  checki "update dest of withdraw" 9 (Types.update_dest (Types.Withdraw 9));
  checkb "withdrawal flag" true (Types.is_withdrawal (Types.Withdraw 1));
  checkb "advert flag" false
    (Types.is_withdrawal (adv 1 []))

(* Paths are plain values: built by a cons chain in one table and by
   [of_list] in another whose history differs, two paths are [Path.equal],
   [=] and [compare]-equal exactly when their hops are. *)
let prop_paths_are_values =
  let hops = QCheck.Gen.(list_size (0 -- 4) (0 -- 3)) in
  QCheck.Test.make ~name:"paths compare by their hops, across tables" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(triple (list int) (list int) (list int))
       QCheck.Gen.(
         pair (triple hops hops hops) bool >|= fun ((earlier, h1, h2), same) ->
         (earlier, h1, if same then h1 else h2)))
    (fun (earlier, h1, h2) ->
      let t1 = Path.create_table () and t2 = Path.create_table () in
      ignore (Path.of_list t1 earlier);
      let a = List.fold_right (fun asn tail -> Path.cons t1 asn tail) h1 Path.empty in
      let b = Path.of_list t2 h2 in
      let same = h1 = h2 in
      Path.hops a = h1
      && Path.equal a b = same
      && (a = b) = same
      && (compare a b = 0) = same)

(* --- Rib -------------------------------------------------------------------- *)

let test_rib_shortest_path_wins () =
  let rib = Rib.create ~asn:0 in
  Rib.set_in rib 9 ~peer:1 ~kind:Types.Ebgp (p [ 1; 5; 9 ]);
  Rib.set_in rib 9 ~peer:2 ~kind:Types.Ebgp (p [ 2; 9 ]);
  ignore (Rib.decide rib 9);
  Alcotest.check (Alcotest.option path_t) "shorter path selected" (Some (p [ 2; 9 ]))
    (Rib.best_path rib 9)

let test_rib_tiebreak_lowest_peer () =
  let rib = Rib.create ~asn:0 in
  Rib.set_in rib 9 ~peer:5 ~kind:Types.Ebgp (p [ 5; 9 ]);
  Rib.set_in rib 9 ~peer:3 ~kind:Types.Ebgp (p [ 3; 9 ]);
  ignore (Rib.decide rib 9);
  (match Rib.best rib 9 with
  | Some (Rib.Learned e) -> checki "lowest peer id wins ties" 3 e.Rib.peer
  | _ -> Alcotest.fail "expected a learned route")

let test_rib_ebgp_beats_ibgp () =
  let rib = Rib.create ~asn:0 in
  Rib.set_in rib 9 ~peer:5 ~kind:Types.Ibgp (p [ 9 ]);
  Rib.set_in rib 9 ~peer:7 ~kind:Types.Ebgp (p [ 9 ]);
  ignore (Rib.decide rib 9);
  match Rib.best rib 9 with
  | Some (Rib.Learned e) ->
    checkb "eBGP wins equal-length tie" true (e.Rib.kind = Types.Ebgp)
  | _ -> Alcotest.fail "expected a learned route"

let test_rib_local_beats_learned () =
  let rib = Rib.create ~asn:4 in
  Rib.originate rib 4;
  Rib.set_in rib 4 ~peer:1 ~kind:Types.Ibgp (p []);
  ignore (Rib.decide rib 4);
  checkb "local origination wins" true (Rib.best rib 4 = Some Rib.Local)

let test_rib_withdraw_falls_back () =
  let rib = Rib.create ~asn:0 in
  Rib.set_in rib 9 ~peer:1 ~kind:Types.Ebgp (p [ 1; 9 ]);
  Rib.set_in rib 9 ~peer:2 ~kind:Types.Ebgp (p [ 2; 7; 9 ]);
  ignore (Rib.decide rib 9);
  Rib.withdraw_in rib 9 ~peer:1;
  checkb "decide reports the change" true (Rib.decide rib 9);
  Alcotest.check (Alcotest.option path_t) "backup promoted" (Some (p [ 2; 7; 9 ]))
    (Rib.best_path rib 9)

let test_rib_withdraw_last_route () =
  let rib = Rib.create ~asn:0 in
  Rib.set_in rib 9 ~peer:1 ~kind:Types.Ebgp (p [ 1; 9 ]);
  ignore (Rib.decide rib 9);
  Rib.withdraw_in rib 9 ~peer:1;
  checkb "change reported" true (Rib.decide rib 9);
  checkb "no route left" true (Rib.best rib 9 = None)

let test_rib_decide_change_detection () =
  let rib = Rib.create ~asn:0 in
  Rib.set_in rib 9 ~peer:1 ~kind:Types.Ebgp (p [ 1; 9 ]);
  checkb "first route is a change" true (Rib.decide rib 9);
  checkb "idempotent decide" false (Rib.decide rib 9);
  (* Same path length via a lower-id peer: it wins the tiebreak, and since
     the path itself differs the change is export-relevant. *)
  Rib.set_in rib 9 ~peer:0 ~kind:Types.Ebgp (p [ 4; 9 ]);
  checkb "better tiebreak with different path is a change" true (Rib.decide rib 9)

let test_rib_loop_rejected () =
  let rib = Rib.create ~asn:3 in
  Alcotest.check_raises "own AS in path"
    (Invalid_argument "Rib.set_in: path contains our own AS (loop check is the caller's job)")
    (fun () -> Rib.set_in rib 9 ~peer:1 ~kind:Types.Ebgp (p [ 1; 3; 9 ]))

let test_rib_drop_peer () =
  let rib = Rib.create ~asn:0 in
  Rib.set_in rib 8 ~peer:1 ~kind:Types.Ebgp (p [ 1; 8 ]);
  Rib.set_in rib 9 ~peer:1 ~kind:Types.Ebgp (p [ 1; 9 ]);
  Rib.set_in rib 9 ~peer:2 ~kind:Types.Ebgp (p [ 2; 9 ]);
  List.iter (fun d -> ignore (Rib.decide rib d)) [ 8; 9 ];
  let affected = List.sort Int.compare (Rib.drop_peer rib ~peer:1) in
  Alcotest.check Alcotest.(list int) "affected dests" [ 8; 9 ] affected;
  ignore (Rib.decide rib 8);
  ignore (Rib.decide rib 9);
  checkb "dest 8 gone" true (Rib.best rib 8 = None);
  Alcotest.check (Alcotest.option path_t) "dest 9 falls back" (Some (p [ 2; 9 ]))
    (Rib.best_path rib 9)

let test_rib_rank_order () =
  let local = Rib.rank Rib.Local in
  let learned ?rel ?(kind = Types.Ebgp) path = Rib.Learned { peer = 1; kind; path; rel } in
  let ebgp = Rib.rank (learned (p [ 9 ])) in
  let ibgp = Rib.rank (learned ~kind:Types.Ibgp (p [ 9 ])) in
  let longer = Rib.rank (learned (p [ 2; 9 ])) in
  checkb "local < ebgp" true (local < ebgp);
  checkb "ebgp < ibgp at same length" true (ebgp < ibgp);
  checkb "shorter < longer" true (ebgp < longer);
  checkb "longer ebgp > shorter ibgp" true (longer > ibgp);
  (* Gao-Rexford preference class outranks path length. *)
  let customer_long = Rib.rank (learned ~rel:Types.Customer (p [ 2; 3; 4; 9 ])) in
  let provider_short = Rib.rank (learned ~rel:Types.Provider (p [ 9 ])) in
  let peer_short = Rib.rank (learned ~rel:Types.Peer_link (p [ 9 ])) in
  checkb "customer beats shorter provider route" true (customer_long < provider_short);
  checkb "customer beats shorter peer route" true (customer_long < peer_short);
  checkb "peer beats provider" true (peer_short < provider_short)

let prop_rib_best_is_minimal =
  let entry_gen =
    QCheck.Gen.(
      map3
        (fun peer kind path -> (peer, kind, path))
        (1 -- 20)
        (map (fun b -> if b then Types.Ebgp else Types.Ibgp) bool)
        (map2
           (fun len start -> List.init len (fun i -> 100 + ((start + i) mod 50)))
           (1 -- 6) (0 -- 49)))
  in
  QCheck.Test.make ~name:"decision picks the minimum-ranked entry" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 10) entry_gen))
    (fun entries ->
      let rib = Rib.create ~asn:0 in
      (* Last write per peer wins, mirroring Adj-RIB-In semantics. *)
      let by_peer = Hashtbl.create 8 in
      List.iter
        (fun (peer, kind, path) ->
          Rib.set_in rib 9 ~peer ~kind (p path);
          Hashtbl.replace by_peer peer (kind, p path))
        entries;
      ignore (Rib.decide rib 9);
      match Rib.best rib 9 with
      | Some (Rib.Learned e) ->
        Hashtbl.fold
          (fun peer (kind, path) ok ->
            ok
            && Rib.rank (Rib.Learned { peer; kind; path; rel = None })
               >= Rib.rank (Rib.Learned e))
          by_peer true
      | _ -> false)

(* The packed int key must induce exactly the ordering of the reference
   tuple rank, for every preference class / length / kind / peer mix. *)
let prop_packed_rank_isomorphic =
  let best_gen =
    QCheck.Gen.(
      frequency
        [
          (1, return Rib.Local);
          ( 9,
            map3
              (fun peer (kind, rel) hops ->
                Rib.Learned { Rib.peer; kind; path = p hops; rel })
              (0 -- 40)
              (pair
                 (map (fun b -> if b then Types.Ebgp else Types.Ibgp) bool)
                 (oneofl
                    [ None; Some Types.Customer; Some Types.Peer_link; Some Types.Provider ]))
              (list_size (0 -- 8) (100 -- 140)) );
        ])
  in
  QCheck.Test.make ~name:"packed rank ordering = tuple rank ordering" ~count:2000
    (QCheck.make QCheck.Gen.(pair best_gen best_gen))
    (fun (a, b) ->
      Stdlib.compare (Rib.rank a) (Rib.rank b)
      = Int.compare (Rib.packed_rank a) (Rib.packed_rank b))

(* Model check for the destination-indexed RIB: random operation sequences
   against an association-list reference that ranks with the tuple
   [Rib.rank] and stores every table as a list.  Peer ids run past 64 and
   destinations past the arrays' initial capacity, so vector growth, array
   growth and the peer tag packed into each key are all exercised. *)
type rib_op =
  | Originate of int
  | Unoriginate of int
  | Set_in of int * int * Types.session_kind * Types.relationship option * int list
  | Withdraw_in of int * int
  | Drop_peer of int
  | Decide of int

let model_dests = [ 0; 3; 15; 16; 17; 40; 129; 700 ]
let model_peers = [ 1; 2; 63; 64; 65; 90; 1000 ]

let pp_rib_op = function
  | Originate d -> Printf.sprintf "originate %d" d
  | Unoriginate d -> Printf.sprintf "unoriginate %d" d
  | Set_in (d, peer, kind, rel, hops) ->
    Fmt.str "set_in %d peer %d %a rel %a [%s]" d peer Types.pp_session_kind kind
      Fmt.(option ~none:(any "none") Types.pp_relationship)
      rel
      (String.concat " " (List.map string_of_int hops))
  | Withdraw_in (d, peer) -> Printf.sprintf "withdraw_in %d peer %d" d peer
  | Drop_peer peer -> Printf.sprintf "drop_peer %d" peer
  | Decide d -> Printf.sprintf "decide %d" d

let rib_op_gen =
  let open QCheck.Gen in
  let dest = oneofl model_dests and peer = oneofl model_peers in
  let kind = map (fun b -> if b then Types.Ebgp else Types.Ibgp) bool in
  let rel =
    oneofl [ None; Some Types.Customer; Some Types.Peer_link; Some Types.Provider ]
  in
  frequency
    [
      (1, map (fun d -> Originate d) dest);
      (1, map (fun d -> Unoriginate d) dest);
      ( 6,
        map3
          (fun (d, peer) (kind, rel) hops -> Set_in (d, peer, kind, rel, hops))
          (pair dest peer) (pair kind rel)
          (list_size (0 -- 4) (100 -- 110)) );
      (3, map2 (fun d peer -> Withdraw_in (d, peer)) dest peer);
      (1, map (fun peer -> Drop_peer peer) peer);
      (5, map (fun d -> Decide d) dest);
    ]

type rib_model = {
  mutable m_local : int list;
  mutable m_adj : ((int * int) * Rib.entry) list;  (* (dest, peer) -> entry *)
  mutable m_loc : (int * Rib.best) list;
  mutable m_touched : int list;  (* destinations that ever had an entry *)
}

let model_entries m d =
  List.filter_map (fun ((d', _), e) -> if d' = d then Some e else None) m.m_adj
  |> List.sort (fun a b -> compare (Rib.rank (Rib.Learned a)) (Rib.rank (Rib.Learned b)))

let model_select m d =
  if List.mem d m.m_local then Some Rib.Local
  else match model_entries m d with [] -> None | e :: _ -> Some (Rib.Learned e)

(* What a selection exports: its path, and whether iBGP peers get it. *)
let export_identity = function
  | None -> None
  | Some Rib.Local -> Some ([], true)
  | Some (Rib.Learned e) -> Some (Path.hops e.Rib.path, e.Rib.kind = Types.Ebgp)

let same_entry (a : Rib.entry) (b : Rib.entry) =
  a.peer = b.peer && a.kind = b.kind && a.rel = b.rel && Path.equal a.path b.path

let same_best a b =
  match (a, b) with
  | None, None | Some Rib.Local, Some Rib.Local -> true
  | Some (Rib.Learned x), Some (Rib.Learned y) -> same_entry x y
  | _ -> false

let prop_rib_matches_model =
  QCheck.Test.make ~name:"RIB matches an association-list model" ~count:400
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_rib_op ops))
       QCheck.Gen.(list_size (1 -- 80) rib_op_gen))
    (fun ops ->
      let rib = Rib.create ~asn:7 in
      let m = { m_local = []; m_adj = []; m_loc = []; m_touched = [] } in
      let step op =
        match op with
        | Originate d ->
          Rib.originate rib d;
          if not (List.mem d m.m_local) then m.m_local <- d :: m.m_local;
          true
        | Unoriginate d ->
          Rib.unoriginate rib d;
          m.m_local <- List.filter (( <> ) d) m.m_local;
          true
        | Set_in (d, peer, kind, rel, hops) ->
          let path = p hops in
          Rib.set_in rib d ~peer ~kind ?rel path;
          m.m_adj <-
            ((d, peer), { Rib.peer; kind; path; rel }) :: List.remove_assoc (d, peer) m.m_adj;
          if not (List.mem d m.m_touched) then m.m_touched <- d :: m.m_touched;
          true
        | Withdraw_in (d, peer) ->
          Rib.withdraw_in rib d ~peer;
          m.m_adj <- List.remove_assoc (d, peer) m.m_adj;
          true
        | Drop_peer peer ->
          let expected =
            List.filter_map (fun ((d, q), _) -> if q = peer then Some d else None) m.m_adj
            |> List.sort_uniq Int.compare
          in
          m.m_adj <- List.filter (fun ((_, q), _) -> q <> peer) m.m_adj;
          Rib.drop_peer rib ~peer = expected
        | Decide d ->
          let before = List.assoc_opt d m.m_loc in
          let after = model_select m d in
          m.m_loc <-
            (match after with
            | None -> List.remove_assoc d m.m_loc
            | Some b -> (d, b) :: List.remove_assoc d m.m_loc);
          Rib.decide rib d = (export_identity before <> export_identity after)
      in
      let consistent () =
        List.for_all
          (fun d ->
            same_best (Rib.best rib d) (List.assoc_opt d m.m_loc)
            && List.equal same_entry (Rib.entries_in rib d) (model_entries m d))
          model_dests
        && Rib.loc_size rib = List.length m.m_loc
        && Rib.in_entries rib = List.length m.m_adj
        &&
        let visited = ref [] in
        Rib.iter_dests rib (fun d -> visited := d :: !visited);
        List.rev !visited
        = List.sort_uniq Int.compare (m.m_local @ m.m_touched @ List.map fst m.m_loc)
      in
      List.for_all (fun op -> step op && consistent ()) ops)

(* --- Router harness ---------------------------------------------------------- *)

(* A small fixture: one router under test with scripted peers.  We capture
   everything the router sends. *)
type fixture = {
  sched : Sched.t;
  router : Router.t;
  sent : (int * Types.update) list ref;  (* (dst, update) in send order *)
}

let make_fixture ?(config = Config.default) ?(asn = 0) ~peers () =
  let sched = Sched.create () in
  let sent = ref [] in
  let cb =
    {
      Router.send = (fun ~src:_ ~dst update -> sent := (dst, update) :: !sent);
      activity = (fun ~time:_ -> ());
    }
  in
  let router =
    Router.create ~sched ~rng:(Rng.create 1) ~paths:tbl ~config ~id:0 ~asn
      ~degree:(List.length peers)
      cb
  in
  List.iter
    (fun (peer, peer_as, kind) -> Router.add_peer router ~peer ~peer_as ~kind ())
    peers;
  { sched; router; sent }

let sent_in_order fx = List.rev !(fx.sent)

let no_jitter = { Config.default with Config.mrai_jitter = false }

let test_router_originates () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  let adverts = sent_in_order fx in
  checki "advertised to both peers" 2 (List.length adverts);
  List.iter
    (fun (_, u) ->
      match u with
      | Types.Advertise { dest = 0; path } when Path.hops path = [ 0 ] -> ()
      | u -> Alcotest.failf "unexpected update %a" Types.pp_update u)
    adverts

let test_router_forwards_best () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  (* Peer 1 advertises dest 9. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run fx.sched;
  (* Must be re-advertised only to peer 2 (peer 1's AS is in the path). *)
  (match sent_in_order fx with
  | [ (2, Types.Advertise { dest = 9; path }) ] when Path.hops path = [ 0; 1; 9 ] -> ()
  | l -> Alcotest.failf "unexpected sends (%d)" (List.length l));
  Alcotest.check (Alcotest.option path_t) "installed" (Some (p [ 1; 9 ]))
    (Router.best_path_to fx.router 9)

let test_router_receiver_loop_check () =
  let fx = make_fixture ~config:no_jitter ~asn:0 ~peers:[ (1, 1, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  (* A path containing our own AS must be discarded. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 0; 9 ]);
  Sched.run fx.sched;
  checkb "looped path not installed" true (Router.best_path_to fx.router 9 = None)

let test_router_withdraw_propagates () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run fx.sched;
  fx.sent := [];
  Router.receive fx.router ~src:1 (Types.Withdraw 9);
  Sched.run fx.sched;
  (match sent_in_order fx with
  | [ (2, Types.Withdraw 9) ] -> ()
  | l -> Alcotest.failf "expected a single withdrawal to peer 2, got %d sends" (List.length l));
  checkb "route gone" true (Router.best_path_to fx.router 9 = None)

let test_router_mrai_coalesces () =
  (* Two updates for the same destination arrive back to back; with the
     MRAI timer running after the first export, only the final state may
     be advertised at expiry. *)
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run fx.sched;
  checki "first advert out immediately" 1 (List.length !(fx.sent));
  (* A better route arrives while peer 2's timer runs. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Router.receive fx.router ~src:1 (Types.Withdraw 9);
  Router.receive fx.router ~src:1 (adv 9 [ 1; 5; 9 ]);
  Sched.run fx.sched;
  let to_peer2 =
    List.filter_map
      (fun (dst, u) -> if dst = 2 && Types.update_dest u = 9 then Some u else None)
      (sent_in_order fx)
  in
  (* First immediate advert, then exactly one coalesced refresh at expiry
     (possibly preceded by an unpaced withdrawal). *)
  let adverts = List.filter (fun u -> not (Types.is_withdrawal u)) to_peer2 in
  checki "adverts coalesced by the MRAI" 2 (List.length adverts);
  match List.rev adverts with
  | Types.Advertise { path; _ } :: _ when Path.hops path = [ 0; 1; 5; 9 ] -> ()
  | _ -> Alcotest.fail "final advert must carry the final path"

(* The export cache: while the Loc-RIB path is unchanged, an MRAI flush
   serves the prepend the router made before instead of building one. *)
let test_router_flush_reuses_prepend () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  let step u =
    Router.receive fx.router ~src:1 u;
    Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched
  in
  (* The first advert goes out at once and starts peer 2's MRAI timer;
     the withdrawal is not rate-limited; the same route, back again,
     waits for the timer. *)
  let route = adv 9 [ 1; 9 ] in
  step route;
  step (Types.Withdraw 9);
  step route;
  let hits = Path.hit_count tbl in
  Sched.run fx.sched;
  checkb "the flush served the cached prepend" true (Path.hit_count tbl > hits);
  let adverts =
    List.filter_map
      (fun (dst, u) ->
        match u with
        | Types.Advertise { dest = 9; path } when dst = 2 -> Some path
        | _ -> None)
      (sent_in_order fx)
  in
  match adverts with
  | [ first; again ] ->
    Alcotest.check path_t "the prepended route" (p [ 0; 1; 9 ]) again;
    checkb "re-sent the same value" true (first == again)
  | l -> Alcotest.failf "expected two adverts to peer 2, got %d" (List.length l)

let test_router_mrai_timer_spacing () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  (* Route flaps from peer 1, 0.1 s apart; exports to peer 2 must be
     spaced by >= MRAI (30 s). *)
  let times = ref [] in
  let record () =
    List.iter
      (fun (dst, u) ->
        if dst = 2 && not (Types.is_withdrawal u) then times := Sched.now fx.sched :: !times)
      !(fx.sent);
    fx.sent := []
  in
  for i = 0 to 5 do
    ignore
      (Sched.schedule fx.sched ~delay:(0.1 *. float_of_int i) (fun () ->
           Router.receive fx.router ~src:1
             (adv 9 (if i mod 2 = 0 then [ 1; 9 ] else [ 1; 5; 9 ]))))
  done;
  let rec pump () = if Sched.step fx.sched then (record (); pump ()) in
  pump ();
  let times = List.sort Float.compare !times in
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b -. a) :: gaps rest
    | _ -> []
  in
  List.iter
    (fun g -> checkb (Printf.sprintf "gap %.3f >= 30" g) true (g >= 30.0 -. 1e-6))
    (gaps times)

let test_router_peer_down_removes_routes () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run fx.sched;
  fx.sent := [];
  Router.peer_down fx.router 1;
  Sched.run fx.sched;
  checkb "route removed" true (Router.best_path_to fx.router 9 = None);
  (* The loss must be signalled to the surviving peer, and nothing may be
     sent to the dead one. *)
  checkb "withdrawal to survivor" true
    (List.exists (fun (dst, u) -> dst = 2 && u = Types.Withdraw 9) (sent_in_order fx));
  checkb "nothing to the dead peer" true
    (List.for_all (fun (dst, _) -> dst <> 1) (sent_in_order fx))

let test_router_stale_update_from_dead_peer_ignored () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  (* The update is queued, then the session drops before processing. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Router.peer_down fx.router 1;
  Sched.run fx.sched;
  checkb "stale update discarded" true (Router.best_path_to fx.router 9 = None)

let test_router_fail_goes_silent () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  Router.fail fx.router;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run fx.sched;
  checkb "failed router is silent" true (!(fx.sent) = []);
  checkb "failed router learns nothing" true (Router.best_path_to fx.router 9 = None);
  checkb "reported failed" true (Router.is_failed fx.router)

let test_router_ibgp_nontransit () =
  (* iBGP-learned routes must not be re-advertised over iBGP, but must be
     exported over eBGP with AS prepend. *)
  let fx =
    make_fixture ~config:no_jitter ~asn:0
      ~peers:[ (1, 0, Types.Ibgp); (2, 0, Types.Ibgp); (3, 3, Types.Ebgp) ] ()
  in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  Router.receive fx.router ~src:1 (adv 9 [ 7; 9 ]);
  Sched.run fx.sched;
  let sends = sent_in_order fx in
  checkb "not echoed to iBGP peers" true
    (List.for_all (fun (dst, _) -> dst <> 1 && dst <> 2) sends);
  checkb "exported over eBGP with prepend" true
    (List.exists
       (fun (dst, u) ->
         dst = 3 && u = adv 9 [ 0; 7; 9 ])
       sends)

let test_router_ebgp_learned_goes_to_ibgp () =
  let fx =
    make_fixture ~config:no_jitter ~asn:0
      ~peers:[ (1, 0, Types.Ibgp); (3, 3, Types.Ebgp) ] ()
  in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  Router.receive fx.router ~src:3 (adv 9 [ 3; 9 ]);
  Sched.run fx.sched;
  checkb "eBGP-learned goes to iBGP without prepend" true
    (List.exists
       (fun (dst, u) ->
         dst = 1 && u = adv 9 [ 3; 9 ])
       (sent_in_order fx))

let test_router_sender_side_loop_check_off () =
  let config = { no_jitter with Config.sender_side_loop_check = false } in
  let fx = make_fixture ~config ~peers:[ (1, 1, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run fx.sched;
  (* Without the check the route is advertised back to peer 1 even though
     peer 1 will drop it. *)
  checkb "echoed back when check disabled" true
    (List.exists (fun (dst, _) -> dst = 1) (sent_in_order fx))

let test_router_mrai_on_withdrawals () =
  let config = { no_jitter with Config.mrai_on_withdrawals = true } in
  let fx = make_fixture ~config ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  (* Drain only a short window so peer 2's 30 s MRAI timer is still
     running when the withdrawal arrives. *)
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  fx.sent := [];
  Router.receive fx.router ~src:1 (Types.Withdraw 9);
  (* Pump only a little simulated time: no withdrawal may leave yet. *)
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  checkb "withdrawal paced by MRAI" true
    (not (List.exists (fun (_, u) -> Types.is_withdrawal u) (sent_in_order fx)));
  Sched.run fx.sched;
  checkb "withdrawal eventually sent" true
    (List.exists (fun (dst, u) -> dst = 2 && Types.is_withdrawal u) (sent_in_order fx))

let test_router_per_dest_mrai () =
  (* Per-destination timers: a change to another destination is not
     blocked by the first destination's running timer. *)
  let config = { no_jitter with Config.mrai_mode = Config.Per_dest } in
  let fx = make_fixture ~config ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  fx.sent := [];
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  Router.receive fx.router ~src:1 (adv 8 [ 1; 8 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  let adverts_to_2 =
    List.filter (fun (dst, u) -> dst = 2 && not (Types.is_withdrawal u)) (sent_in_order fx)
  in
  checki "both destinations exported promptly" 2 (List.length adverts_to_2)

let test_router_cancel_on_improvement () =
  (* A better route must bypass the running MRAI timer; a worse one must
     still wait. *)
  let config = { no_jitter with Config.mrai_bypass = Config.Cancel_on_improvement } in
  let fx = make_fixture ~config ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 5; 9 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  fx.sent := [];
  (* Improvement: shorter path arrives while peer 2's timer runs. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  checkb "improvement bypasses the timer" true
    (List.exists
       (fun (dst, u) -> dst = 2 && u = adv 9 [ 0; 1; 9 ])
       (sent_in_order fx));
  fx.sent := [];
  (* Degradation: longer path must wait for expiry. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 5; 6; 9 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  checkb "degradation is still paced" true
    (not (List.exists (fun (dst, _) -> dst = 2) (sent_in_order fx)));
  Sched.run fx.sched;
  checkb "degradation goes out at expiry" true
    (List.exists
       (fun (dst, u) ->
         dst = 2 && u = adv 9 [ 0; 1; 5; 6; 9 ])
       (sent_in_order fx))

let test_router_flap_threshold () =
  (* Below the threshold, changes go out immediately even though the timer
     runs; at the threshold, pacing kicks in. *)
  let config = { no_jitter with Config.mrai_bypass = Config.Flap_threshold 2 } in
  let fx = make_fixture ~config ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  fx.sent := [];
  (* Change 1 while the timer runs: flap count 1 < 2 -> immediate. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 5; 9 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  checkb "first flap bypasses the MRAI" true
    (List.exists (fun (dst, _) -> dst = 2) (sent_in_order fx));
  fx.sent := [];
  (* Change 2: flap count reaches the threshold -> paced. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 6; 9 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  checkb "second flap is paced" true
    (not (List.exists (fun (dst, _) -> dst = 2) (sent_in_order fx)));
  Sched.run fx.sched;
  checkb "paced update flushes at expiry" true
    (List.exists (fun (dst, _) -> dst = 2) (sent_in_order fx))

let test_router_damping_suppresses_and_reuses () =
  let damping =
    Some
      {
        Bgp_core.Damping.withdraw_penalty = 1.0;
        update_penalty = 0.5;
        half_life = 10.0;
        cut_threshold = 2.0;
        reuse_threshold = 0.75;
        max_suppress = 300.0;
      }
  in
  let config = { no_jitter with Config.damping } in
  let fx = make_fixture ~config ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  (* Flap dest 9 hard: advertise / withdraw / advertise / withdraw /
     advertise — the final advertisement arrives suppressed. *)
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Router.receive fx.router ~src:1 (Types.Withdraw 9);
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Router.receive fx.router ~src:1 (Types.Withdraw 9);
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  checkb "route suppressed despite advertisement" true
    (Router.best_path_to fx.router 9 = None);
  checkb "suppression counted" true
    ((Router.metrics fx.router).Router.damping_suppressions >= 1);
  (* Let the penalty decay: the parked route must come back by itself. *)
  Sched.run fx.sched;
  Alcotest.check (Alcotest.option path_t) "route reinstated at reuse time"
    (Some (p [ 1; 9 ]))
    (Router.best_path_to fx.router 9)

let test_router_damping_clean_routes_unaffected () =
  let config =
    { no_jitter with Config.damping = Some Bgp_core.Damping.sim_config }
  in
  let fx = make_fixture ~config ~peers:[ (1, 1, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Sched.run fx.sched;
  Alcotest.check (Alcotest.option path_t) "single advertisement installs normally"
    (Some (p [ 1; 9 ]))
    (Router.best_path_to fx.router 9)

(* A session reset re-syncs the Adj-RIB-Out from scratch: once the
   network is quiet again, what the router holds as advertised to each
   peer is exactly the current export of its Loc-RIB, for every
   destination, and the peer's view rebuilt from the messages sent since
   the session came back agrees with it.  Routes change while the session
   is down, and some destinations lie past the per-peer arrays' initial
   capacity. *)
let check_resync mode () =
  let config = { no_jitter with Config.mrai_mode = mode } in
  let peers = [ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp); (3, 3, Types.Ebgp) ] in
  let fx = make_fixture ~config ~peers () in
  let dests = [ 0; 5; 9; 40; 70 ] in
  Router.start fx.router;
  Sched.run fx.sched;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Router.receive fx.router ~src:2 (adv 9 [ 2; 5; 9 ]);
  Router.receive fx.router ~src:1 (adv 40 [ 1; 40 ]);
  Router.receive fx.router ~src:2 (adv 70 [ 2; 70 ]);
  Router.receive fx.router ~src:3 (adv 70 [ 3; 4; 70 ]);
  Sched.run fx.sched;
  Router.peer_down fx.router 2;
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  Router.receive fx.router ~src:1 (Types.Withdraw 40);
  Router.receive fx.router ~src:3 (adv 5 [ 3; 5 ]);
  Sched.run ~until:(Sched.now fx.sched +. 1.0) fx.sched;
  fx.sent := [];
  Router.peer_up fx.router 2;
  Sched.run fx.sched;
  let view = Hashtbl.create 8 in
  List.iter
    (fun (dst, u) ->
      if dst = 2 then
        match u with
        | Types.Advertise { dest; path } -> Hashtbl.replace view dest path
        | Types.Withdraw dest -> Hashtbl.remove view dest)
    (sent_in_order fx);
  let rib = Router.rib fx.router in
  List.iter
    (fun (peer, peer_as, kind) ->
      List.iter
        (fun d ->
          let expected =
            let offer = Export.offer ~paths:tbl ~own_as:0 (Rib.best rib d) in
            match Export.path_for ~config offer ~peer_kind:kind ~peer_as () with
            | path when path == Path.absent -> None
            | path -> Some path
          in
          let ctx = Printf.sprintf "peer %d dest %d" peer d in
          Alcotest.check (Alcotest.option path_t) ctx expected
            (Router.advertised_to fx.router ~peer d);
          if peer = 2 then
            Alcotest.check (Alcotest.option path_t) (ctx ^ " (peer's view)") expected
              (Hashtbl.find_opt view d))
        dests)
    peers;
  checkb "re-sync advertised something" true (Hashtbl.length view > 0)

let test_router_metrics () =
  let fx = make_fixture ~config:no_jitter ~peers:[ (1, 1, Types.Ebgp); (2, 2, Types.Ebgp) ] () in
  Router.start fx.router;
  Sched.run fx.sched;
  Router.receive fx.router ~src:1 (adv 9 [ 1; 9 ]);
  Router.receive fx.router ~src:1 (Types.Withdraw 9);
  Sched.run fx.sched;
  let m = Router.metrics fx.router in
  checkb "processed counted" true (m.Router.msgs_processed >= 2);
  checkb "adverts counted" true (m.Router.adverts_sent >= 3);
  checkb "withdrawal counted" true (m.Router.withdrawals_sent >= 1)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "bgp"
    [
      ( "types",
        [
          Alcotest.test_case "path helpers" `Quick test_path_helpers;
          qc ~rand:(Random.State.make [| 24 |]) prop_paths_are_values;
        ] );
      ( "rib",
        [
          Alcotest.test_case "shortest path wins" `Quick test_rib_shortest_path_wins;
          Alcotest.test_case "tiebreak lowest peer" `Quick test_rib_tiebreak_lowest_peer;
          Alcotest.test_case "eBGP beats iBGP" `Quick test_rib_ebgp_beats_ibgp;
          Alcotest.test_case "local beats learned" `Quick test_rib_local_beats_learned;
          Alcotest.test_case "withdraw falls back" `Quick test_rib_withdraw_falls_back;
          Alcotest.test_case "withdraw last route" `Quick test_rib_withdraw_last_route;
          Alcotest.test_case "change detection" `Quick test_rib_decide_change_detection;
          Alcotest.test_case "loop rejected" `Quick test_rib_loop_rejected;
          Alcotest.test_case "drop peer" `Quick test_rib_drop_peer;
          Alcotest.test_case "rank order" `Quick test_rib_rank_order;
          qc prop_rib_best_is_minimal;
          qc prop_packed_rank_isomorphic;
          qc ~rand:(Random.State.make [| 14 |]) prop_rib_matches_model;
        ] );
      ( "router",
        [
          Alcotest.test_case "originates" `Quick test_router_originates;
          Alcotest.test_case "forwards best" `Quick test_router_forwards_best;
          Alcotest.test_case "receiver loop check" `Quick test_router_receiver_loop_check;
          Alcotest.test_case "withdraw propagates" `Quick test_router_withdraw_propagates;
          Alcotest.test_case "MRAI coalesces" `Quick test_router_mrai_coalesces;
          Alcotest.test_case "MRAI spacing" `Quick test_router_mrai_timer_spacing;
          Alcotest.test_case "MRAI flush reuses the prepend" `Quick
            test_router_flush_reuses_prepend;
          Alcotest.test_case "peer down removes routes" `Quick
            test_router_peer_down_removes_routes;
          Alcotest.test_case "stale update from dead peer" `Quick
            test_router_stale_update_from_dead_peer_ignored;
          Alcotest.test_case "fail goes silent" `Quick test_router_fail_goes_silent;
          Alcotest.test_case "iBGP non-transit" `Quick test_router_ibgp_nontransit;
          Alcotest.test_case "eBGP-learned to iBGP" `Quick
            test_router_ebgp_learned_goes_to_ibgp;
          Alcotest.test_case "sender-side check off" `Quick
            test_router_sender_side_loop_check_off;
          Alcotest.test_case "MRAI on withdrawals" `Quick test_router_mrai_on_withdrawals;
          Alcotest.test_case "per-dest MRAI" `Quick test_router_per_dest_mrai;
          Alcotest.test_case "cancel-on-improvement bypass" `Quick
            test_router_cancel_on_improvement;
          Alcotest.test_case "flap-threshold bypass" `Quick test_router_flap_threshold;
          Alcotest.test_case "damping suppress + reuse" `Quick
            test_router_damping_suppresses_and_reuses;
          Alcotest.test_case "damping leaves clean routes" `Quick
            test_router_damping_clean_routes_unaffected;
          Alcotest.test_case "re-sync after session reset (per-peer MRAI)" `Quick
            (check_resync Config.Per_peer);
          Alcotest.test_case "re-sync after session reset (per-dest MRAI)" `Quick
            (check_resync Config.Per_dest);
          Alcotest.test_case "metrics" `Quick test_router_metrics;
        ] );
    ]
