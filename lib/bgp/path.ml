type t = {
  hops : int list;  (* spine shared with the tail node: hops = head :: tail.hops *)
  len : int;
  bits : int;  (* membership bitset: bit (asn mod 62) of every hop *)
}

let empty = { hops = []; len = 0; bits = 0 }

(* Length -1 makes [equal absent p] false for every real [p]. *)
let absent = { hops = []; len = -1; bits = 0 }

type table = {
  mutable built : int;
  mutable hops_built : int;  (* sum of the built nodes' lengths *)
  mutable hits : int;
}

let create_table () = { built = 0; hops_built = 0; hits = 0 }

(* AS ids are non-negative (the membership bit is [asn mod 62]), and 22
   bits cover any AS number this simulator generates (destinations are AS
   ids); [cons] rejects anything else. *)
let max_asn = (1 lsl 22) - 1

let cons tbl asn tail =
  if asn < 0 || asn > max_asn then invalid_arg "Path.cons: AS id out of range";
  let len = tail.len + 1 in
  tbl.built <- tbl.built + 1;
  tbl.hops_built <- tbl.hops_built + len;
  { hops = asn :: tail.hops; len; bits = tail.bits lor (1 lsl (asn mod 62)) }

let cons_cached tbl ~last asn tail =
  match last.hops with
  | h :: rest when h = asn && rest == tail.hops ->
    tbl.hits <- tbl.hits + 1;
    last
  | _ -> cons tbl asn tail

let of_list tbl l = List.fold_right (fun asn acc -> cons tbl asn acc) l empty

let hops p = p.hops
let length p = p.len
let is_empty p = p.len = 0

let rec mem_int (asn : int) = function
  | [] -> false
  | x :: tl -> x = asn || mem_int asn tl

let contains p asn =
  asn >= 0 && p.bits land (1 lsl (asn mod 62)) <> 0 && mem_int asn p.hops

(* Paths built on a shared tail meet on one spine, so the walk stops
   where they do. *)
let rec eq_hops (a : int list) (b : int list) =
  a == b
  ||
  match (a, b) with
  | x :: xs, y :: ys -> x = y && eq_hops xs ys
  | _ -> false

let equal a b = a == b || (a.len = b.len && a.bits = b.bits && eq_hops a.hops b.hops)

let pp ppf p = Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any " ") int) p.hops

let unique_count tbl = tbl.built
let hit_count tbl = tbl.hits

type table_stats = {
  nodes : int;
  hops_total : int;
  sharing : float;
  approx_bytes : int;
}

(* Word model per built node: path record (4 words incl. header) + the
   one cons cell it adds to the shared spine (3) = 7 words.  [hops_total]
   is what the paths would occupy as naive int lists (3 words per hop);
   [sharing] is that naive cost over the actual shared-spine cost, >= 1,
   higher = more tail sharing. *)
let table_stats tbl =
  let word = Sys.word_size / 8 in
  let nodes = tbl.built in
  let sharing =
    if nodes = 0 then 1.0 else float_of_int tbl.hops_built /. float_of_int nodes
  in
  { nodes; hops_total = tbl.hops_built; sharing; approx_bytes = nodes * 7 * word }
