type t = {
  id : int;  (* unique within the owning table; 0 = empty *)
  hops : int list;  (* spine shared with the tail node: hops = head :: tail.hops *)
  len : int;
  bits : int;  (* membership bitset: bit (asn mod 62) of every hop *)
}

let empty = { id = 0; hops = []; len = 0; bits = 0 }

(* Length -1 makes [equal absent p] false for every real [p]. *)
let absent = { id = -1; hops = []; len = -1; bits = 0 }

module Memo = Bgp_engine.Int_table

type table = {
  memo : t Memo.t;  (* key = tail id * 2^22 + head asn *)
  mutable next_id : int;
  mutable hits : int;
}

let create_table () = { memo = Memo.create 1024; next_id = 1; hits = 0 }

(* Memo keys pack (tail id, head asn) into one int, so the hot probe hashes
   an immediate instead of a tuple.  22 bits cover any AS number this
   simulator generates (destinations are AS ids); 41 bits of id space is
   unreachable in practice.  The table's hash mixes all key bits: taking
   the bucket from the low bits alone would put every path with the same
   head AS in one bucket. *)
let asn_bits = 22
let max_asn = (1 lsl asn_bits) - 1

let cons tbl asn tail =
  if asn < 0 || asn > max_asn then invalid_arg "Path.cons: AS id out of range";
  let key = (tail.id lsl asn_bits) lor asn in
  (* [find], not [find_opt]: a hit allocates nothing. *)
  match Memo.find tbl.memo key with
  | p ->
    (* The key only identifies [tail] within [tbl]; a tail interned
       elsewhere could collide on id, so confirm spine sharing. *)
    (match p.hops with
    | _ :: rest when rest == tail.hops ->
      tbl.hits <- tbl.hits + 1;
      p
    | _ -> invalid_arg "Path.cons: tail was interned in a different table")
  | exception Not_found ->
    let p =
      {
        id = tbl.next_id;
        hops = asn :: tail.hops;
        len = tail.len + 1;
        bits = tail.bits lor (1 lsl (asn mod 62));
      }
    in
    tbl.next_id <- tbl.next_id + 1;
    Memo.replace tbl.memo key p;
    p

let of_list tbl l = List.fold_right (fun asn acc -> cons tbl asn acc) l empty

let hops p = p.hops
let length p = p.len
let is_empty p = p.len = 0
let id p = p.id

let rec mem_int (asn : int) = function
  | [] -> false
  | x :: tl -> x = asn || mem_int asn tl

let contains p asn =
  asn >= 0 && p.bits land (1 lsl (asn mod 62)) <> 0 && mem_int asn p.hops

let rec eq_hops (a : int list) (b : int list) =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> x = y && eq_hops xs ys
  | _ -> false

let equal a b = a == b || (a.len = b.len && a.bits = b.bits && eq_hops a.hops b.hops)

let pp ppf p = Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any " ") int) p.hops

let unique_count tbl = tbl.next_id - 1
let hit_count tbl = tbl.hits

type table_stats = {
  nodes : int;
  hops_total : int;
  sharing : float;
  approx_bytes : int;
}

(* Word model per interned node: path record (5 words incl. header) +
   one cons cell of the shared spine (3) + memo bucket cons (3) = 11
   words.  [hops_total] is what the paths would occupy as naive int
   lists (3 words per hop); [sharing] is that naive cost over the
   actual shared-spine cost, >= 1, higher = more tail sharing. *)
let table_stats tbl =
  let word = Sys.word_size / 8 in
  let hops_total = Memo.fold (fun _ p acc -> acc + p.len) tbl.memo 0 in
  let nodes = unique_count tbl in
  let sharing =
    if nodes = 0 then 1.0 else float_of_int hops_total /. float_of_int nodes
  in
  { nodes; hops_total; sharing; approx_bytes = nodes * 11 * word }
