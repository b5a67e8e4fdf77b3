open Types

type entry = {
  peer : router_id;
  kind : session_kind;
  path : path;
  rel : relationship option;
}
type best = Local | Learned of entry

(* Packed ranking key: one int, lower is better, ordering identical to the
   lexicographic tuple (pref, len, kind, peer).  Layout (low to high):

     bits 0..30   peer id + 1        (Local's "peer -1" packs to 0)
     bit  31      session kind       (0 = eBGP, 1 = iBGP)
     bits 32..55  AS-path length     (24 bits)
     bits 56..57  preference class   (customer 0 / peer 1 / provider 2)

   Local therefore packs to 0, strictly below every learned route.  The
   key is precomputed at Adj-RIB-In insertion, so [select] compares plain
   ints and [decide] never allocates rank tuples. *)

let max_peer = (1 lsl 31) - 2
let max_len = (1 lsl 24) - 1

let pack ~pref ~len ~kind ~peer =
  if len > max_len then invalid_arg "Rib: AS path too long to rank";
  if peer < -1 || peer > max_peer then invalid_arg "Rib: peer id out of rank range";
  (pref lsl 56)
  lor (len lsl 32)
  lor ((match kind with Ebgp -> 0 | Ibgp -> 1) lsl 31)
  lor (peer + 1)

let packed_rank = function
  | Local -> 0
  | Learned { peer; kind; path; rel } ->
    pack ~pref:(preference_of_relationship rel) ~len:(path_length path) ~kind ~peer

let rank = function
  | Local -> (0, 0, 0, -1)
  | Learned { peer; kind; path; rel } ->
    ( preference_of_relationship rel,
      path_length path,
      (match kind with Ebgp -> 0 | Ibgp -> 1),
      peer )

(* Destination-indexed layout.  Every per-destination structure is an
   array slot (grown on demand), so the update path does no hashing:

     adj    one small vector per destination: the Adj-RIB-In entries with
            their packed keys, in no particular order.  A key's low 31
            bits are the peer id + 1, so finding a peer's entry scans ints
            only.  [no_vec] until the destination's first [set_in].
     loc    the Loc-RIB selection; [None] = no route.
     local  one byte per destination, 1 = locally originated.

   Entry counts are kept alongside, so [loc_size] and [in_entries] are
   O(1). *)
type vec = {
  mutable len : int;
  mutable keys : int array;
  mutable entries : entry array;
}

let peer_tag = (1 lsl 31) - 1
let no_entry = { peer = -1; kind = Ebgp; path = Path.empty; rel = None }

(* Shared by every destination without a vector; never written. *)
let no_vec = { len = 0; keys = [||]; entries = [||] }

type t = {
  asn : as_id;
  mutable adj : vec array;
  mutable loc : best option array;
  mutable local : Bytes.t;
  mutable in_count : int;
  mutable loc_count : int;
}

let initial_dests = 16

let create ~asn =
  {
    asn;
    adj = Array.make initial_dests no_vec;
    loc = Array.make initial_dests None;
    local = Bytes.make initial_dests '\000';
    in_count = 0;
    loc_count = 0;
  }

let asn t = t.asn

(* Make [dest] a valid index of all three arrays. *)
let ensure t dest =
  if dest < 0 then invalid_arg "Rib: negative destination";
  let cap = Array.length t.adj in
  if dest >= cap then begin
    let cap' = max (dest + 1) (2 * cap) in
    let adj = Array.make cap' no_vec and loc = Array.make cap' None in
    Array.blit t.adj 0 adj 0 cap;
    Array.blit t.loc 0 loc 0 cap;
    let local = Bytes.make cap' '\000' in
    Bytes.blit t.local 0 local 0 cap;
    t.adj <- adj;
    t.loc <- loc;
    t.local <- local
  end

let in_range t dest = dest >= 0 && dest < Array.length t.adj
let vec_at t dest = if in_range t dest then t.adj.(dest) else no_vec
let is_local t dest = in_range t dest && Bytes.get t.local dest <> '\000'

let originate t dest =
  ensure t dest;
  Bytes.set t.local dest '\001'

let unoriginate t dest = if in_range t dest then Bytes.set t.local dest '\000'

(* Index of the entry tagged [tag] (peer id + 1) in [v], or -1. *)
let find v tag =
  let rec go i =
    if i >= v.len then -1 else if v.keys.(i) land peer_tag = tag then i else go (i + 1)
  in
  go 0

let remove_at v i =
  let last = v.len - 1 in
  v.keys.(i) <- v.keys.(last);
  v.entries.(i) <- v.entries.(last);
  v.entries.(last) <- no_entry;
  v.len <- last

let set_in t dest ~peer ~kind ?rel path =
  if path_contains path t.asn then
    invalid_arg "Rib.set_in: path contains our own AS (loop check is the caller's job)";
  let key =
    pack ~pref:(preference_of_relationship rel) ~len:(path_length path) ~kind ~peer
  in
  ensure t dest;
  let v =
    let v = t.adj.(dest) in
    if v != no_vec then v
    else begin
      let v = { len = 0; keys = Array.make 2 0; entries = Array.make 2 no_entry } in
      t.adj.(dest) <- v;
      v
    end
  in
  let entry = { peer; kind; path; rel } in
  let i = find v (peer + 1) in
  if i >= 0 then begin
    v.keys.(i) <- key;
    v.entries.(i) <- entry
  end
  else begin
    let cap = Array.length v.keys in
    if v.len = cap then begin
      let keys = Array.make (2 * cap) 0 and entries = Array.make (2 * cap) no_entry in
      Array.blit v.keys 0 keys 0 cap;
      Array.blit v.entries 0 entries 0 cap;
      v.keys <- keys;
      v.entries <- entries
    end;
    v.keys.(v.len) <- key;
    v.entries.(v.len) <- entry;
    v.len <- v.len + 1;
    t.in_count <- t.in_count + 1
  end

let withdraw_in t dest ~peer =
  let v = vec_at t dest in
  let i = find v (peer + 1) in
  if i >= 0 then begin
    remove_at v i;
    t.in_count <- t.in_count - 1
  end

let drop_peer t ~peer =
  let tag = peer + 1 in
  let dropped = ref [] in
  for dest = Array.length t.adj - 1 downto 0 do
    let v = t.adj.(dest) in
    let i = find v tag in
    if i >= 0 then begin
      remove_at v i;
      t.in_count <- t.in_count - 1;
      dropped := dest :: !dropped
    end
  done;
  !dropped

let entries_in t dest =
  let v = vec_at t dest in
  List.init v.len (fun i -> (v.keys.(i), v.entries.(i)))
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let best t dest = if in_range t dest then t.loc.(dest) else None

let local_best = Some Local

(* The entry with the minimum key.  Keys are unique (the peer id is part
   of the key), so the minimum is unambiguous and the vector's order
   cannot matter.  When the winner is the entry already selected, the
   current Loc-RIB value is returned as is, so an unchanged decision
   allocates nothing. *)
let select t dest =
  if is_local t dest then local_best
  else
    let v = vec_at t dest in
    if v.len = 0 then None
    else begin
      let bi = ref 0 in
      for i = 1 to v.len - 1 do
        if v.keys.(i) < v.keys.(!bi) then bi := i
      done;
      let e = v.entries.(!bi) in
      match t.loc.(dest) with
      | Some (Learned cur) as current when cur == e -> current
      | _ -> Some (Learned e)
    end

let ibgp_exportable = function
  | Local -> true
  | Learned { kind = Ebgp; _ } -> true
  | Learned { kind = Ibgp; _ } -> false

(* Allocation-free equivalent of comparing the old [export_identity]
   options: two selections are export-equivalent iff they agree on the
   advertised path and on iBGP re-exportability (Local counts as the
   empty path and exportable, exactly as before). *)
let same_export before after =
  match (before, after) with
  | None, None -> true
  | None, Some _ | Some _, None -> false
  | Some Local, Some Local -> true
  | Some Local, Some (Learned e) | Some (Learned e), Some Local ->
    path_length e.path = 0 && ibgp_exportable (Learned e)
  | Some (Learned a), Some (Learned b) ->
    path_equal a.path b.path
    && ibgp_exportable (Learned a) = ibgp_exportable (Learned b)

let decide t dest =
  let before = best t dest in
  let after = select t dest in
  if after == before then false
  else begin
    (* [after] differs from [before], so one of them is a selection and
       [dest] is in range. *)
    t.loc.(dest) <- after;
    (match (before, after) with
    | None, Some _ -> t.loc_count <- t.loc_count + 1
    | Some _, None -> t.loc_count <- t.loc_count - 1
    | _ -> ());
    not (same_export before after)
  end

let best_path t dest =
  match best t dest with
  | None -> None
  | Some Local -> Some Path.empty
  | Some (Learned e) -> Some e.path

let loc_size t = t.loc_count
let in_entries t = t.in_count

(* Estimated resident size in bytes.  A fixed word model, not a heap
   walk, so the number is deterministic (it depends only on entry and
   slot counts, never on GC state) and cheap to take mid-run:
     adj-in entry   key (1) + entry slot (1) + entry (5) + rel (2)
     per-dest vec   record (4) + two array headers (2)
     loc-rib entry  Some box (2) + Learned box (2); the entry is shared
                    with the Adj-RIB-In
     dest slot      adj and loc array slots (2) + local byte (1/8)
     fixed          record (7) + three array headers (3)
   Unused vector capacity is not counted.  AS paths are shared between
   RIBs and accounted once, from the run's path counters
   ([Path.table_stats]), not per RIB. *)
let approx_bytes t =
  let word = Sys.word_size / 8 in
  let slots = Array.length t.adj in
  let vecs = Array.fold_left (fun n v -> if v != no_vec then n + 1 else n) 0 t.adj in
  let words =
    (t.in_count * 9) + (vecs * 6) + (t.loc_count * 4) + (slots * 2) + (slots / 8) + 10
  in
  words * word

let iter_dests t f =
  for dest = 0 to Array.length t.adj - 1 do
    if
      t.adj.(dest) != no_vec
      || Option.is_some t.loc.(dest)
      || Bytes.get t.local dest <> '\000'
    then f dest
  done
