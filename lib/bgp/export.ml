open Types

(* Valley-free rule: a route learned from a peer or a provider may only
   be exported to customers.  Local routes and customer routes go to
   everyone.  Sessions without relationship metadata are unrestricted. *)
let valley_free_allows ~peer_rel best =
  match best with
  | Rib.Local -> true
  | Rib.Learned e -> (
    match e.Rib.rel with
    | None | Some Customer -> true
    | Some (Peer_link | Provider) -> peer_rel = Some Customer)

let base_path = function Rib.Local -> Path.empty | Rib.Learned e -> e.Rib.path

type offer = {
  paths : Path.table;
  own_as : as_id;
  best : Rib.best option;
  cached : path;  (* an earlier prepend that [Path.cons_cached] may serve *)
  mutable prepended : path;  (* [Path.absent] until an eBGP peer needs it *)
}

let offer ?(cached = Path.absent) ~paths ~own_as best =
  { paths; own_as; best; cached; prepended = Path.absent }

let prepended offer = offer.prepended

let path_for ~config offer ~peer_kind ~peer_as ?peer_rel () =
  match offer.best with
  | None -> Path.absent
  | Some best ->
    if peer_kind = Ibgp && not (Rib.ibgp_exportable best) then Path.absent
    else if peer_kind = Ebgp && not (valley_free_allows ~peer_rel best) then Path.absent
    else
      let path =
        match peer_kind with
        | Ibgp -> base_path best
        | Ebgp ->
          if offer.prepended == Path.absent then
            offer.prepended <-
              Path.cons_cached offer.paths ~last:offer.cached offer.own_as
                (base_path best);
          offer.prepended
      in
      if config.Config.sender_side_loop_check && path_contains path peer_as then
        Path.absent
      else path
