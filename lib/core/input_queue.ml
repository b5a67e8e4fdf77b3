type discipline =
  | Fifo
  | Batched
  | Fifo_dedup
  | Tcp_batch of { batch_size : int }

let discipline_name = function
  | Fifo -> "fifo"
  | Batched -> "batched"
  | Fifo_dedup -> "fifo-dedup"
  | Tcp_batch { batch_size } -> Printf.sprintf "tcp-batch(%d)" batch_size

type 'a item = { src : int; dest : int; payload : 'a; cause : int; enqueued : float }

module Int_table = Bgp_engine.Int_table

(* All disciplines are built on doubly-linked cells so that stale-update
   elimination is O(1) once the cell is found via the (src, dest) index. *)
type 'a cell = {
  item : 'a item;
  batch : int;  (* arrival batch id: 0 except under Tcp_batch *)
  mutable prev : 'a cell option;
  mutable next : 'a cell option;
  mutable dead : bool;
}

type 'a dlist = {
  mutable first : 'a cell option;
  mutable last : 'a cell option;
  mutable count : int;
}

let dlist_create () = { first = None; last = None; count = 0 }

let dlist_append l item ~batch =
  let cell = { item; batch; prev = l.last; next = None; dead = false } in
  let link = Some cell in
  (match l.last with None -> l.first <- link | Some tail -> tail.next <- link);
  l.last <- link;
  l.count <- l.count + 1;
  cell

let dlist_remove l cell =
  if not cell.dead then begin
    cell.dead <- true;
    (match cell.prev with None -> l.first <- cell.next | Some p -> p.next <- cell.next);
    (match cell.next with None -> l.last <- cell.prev | Some n -> n.prev <- cell.prev);
    l.count <- l.count - 1
  end

let dlist_pop l =
  match l.first with
  | None -> None
  | Some cell ->
    dlist_remove l cell;
    Some cell.item

type 'a t = {
  discipline : discipline;
  (* Fifo / Fifo_dedup / Tcp_batch: single arrival-order list.
     Batched: one list per destination plus the order in which
     destinations became pending. *)
  fifo : 'a dlist;
  per_dest : 'a dlist Int_table.t;
  dest_order : int Queue.t;
  (* [index_key src dest] -> live cell, for stale elimination. *)
  index : 'a cell Int_table.t;
  (* Tcp_batch: current batch id and fill level per source. *)
  batch_of_src : int Int_table.t;
  fill_of_src : int Int_table.t;
  mutable total : int;
  mutable eliminated : int;
  mutable max_length : int;
}

let create discipline =
  {
    discipline;
    fifo = dlist_create ();
    per_dest = Int_table.create 64;
    dest_order = Queue.create ();
    index = Int_table.create 64;
    batch_of_src = Int_table.create 8;
    fill_of_src = Int_table.create 8;
    total = 0;
    eliminated = 0;
    max_length = 0;
  }

let discipline t = t.discipline
let length t = t.total
let is_empty t = t.total = 0
let eliminated t = t.eliminated
let max_length t = t.max_length

(* The (src, dest) pair packed into one int: src in the high bits, dest in
   the low 32 (dest is -1 for session work items).  Injective while
   0 <= src < 2^30 and -1 <= dest < 2^32 - 1. *)
let index_key src dest = (src lsl 32) lor (dest land 0xFFFF_FFFF)

(* Does this discipline eliminate stale updates (and so keep the index)? *)
let indexed t =
  match t.discipline with Fifo -> false | Batched | Fifo_dedup | Tcp_batch _ -> true

(* The arrival batch this push belongs to (advancing the per-source fill
   counter under Tcp_batch; always 0 otherwise). *)
let arrival_batch t src =
  match t.discipline with
  | Fifo | Fifo_dedup | Batched -> 0
  | Tcp_batch { batch_size } ->
    let batch = Option.value ~default:0 (Int_table.find_opt t.batch_of_src src) in
    let fill = 1 + Option.value ~default:0 (Int_table.find_opt t.fill_of_src src) in
    if fill >= batch_size then begin
      Int_table.replace t.batch_of_src src (batch + 1);
      Int_table.replace t.fill_of_src src 0
    end
    else Int_table.replace t.fill_of_src src fill;
    batch

let eliminate_stale t (item : 'a item) ~key ~batch =
  match Int_table.find_opt t.index key with
  | Some cell when not cell.dead -> (
    match t.discipline with
    | Fifo -> ()
    | Fifo_dedup ->
      dlist_remove t.fifo cell;
      t.total <- t.total - 1;
      t.eliminated <- t.eliminated + 1
    | Tcp_batch _ ->
      (* Only updates landing in the same TCP read coalesce. *)
      if cell.batch = batch then begin
        dlist_remove t.fifo cell;
        t.total <- t.total - 1;
        t.eliminated <- t.eliminated + 1
      end
    | Batched -> (
      match Int_table.find_opt t.per_dest item.dest with
      | Some l ->
        dlist_remove l cell;
        t.total <- t.total - 1;
        t.eliminated <- t.eliminated + 1
      | None -> ()))
  | _ -> ()

let push t item =
  let batch = arrival_batch t item.src in
  let key = index_key item.src item.dest in
  if indexed t then eliminate_stale t item ~key ~batch;
  let cell =
    match t.discipline with
    | Fifo | Fifo_dedup | Tcp_batch _ -> dlist_append t.fifo item ~batch
    | Batched ->
      let l =
        match Int_table.find_opt t.per_dest item.dest with
        | Some l -> l
        | None ->
          let l = dlist_create () in
          Int_table.replace t.per_dest item.dest l;
          l
      in
      if l.count = 0 then Queue.add item.dest t.dest_order;
      dlist_append l item ~batch
  in
  if indexed t then Int_table.replace t.index key cell;
  t.total <- t.total + 1;
  if t.total > t.max_length then t.max_length <- t.total

let rec pop_batched t =
  match Queue.peek_opt t.dest_order with
  | None -> None
  | Some dest -> (
    let l = Int_table.find t.per_dest dest in
    match dlist_pop l with
    | Some item ->
      if l.count = 0 then ignore (Queue.pop t.dest_order);
      Some item
    | None ->
      (* The destination's queue was emptied by stale elimination. *)
      ignore (Queue.pop t.dest_order);
      pop_batched t)

let pop t =
  let result =
    match t.discipline with
    | Fifo | Fifo_dedup | Tcp_batch _ -> dlist_pop t.fifo
    | Batched -> pop_batched t
  in
  (match result with
  | Some item ->
    t.total <- t.total - 1;
    if indexed t then begin
      (* Drop the index entry if it still points at this message. *)
      let key = index_key item.src item.dest in
      match Int_table.find_opt t.index key with
      | Some cell when cell.dead -> Int_table.remove t.index key
      | _ -> ()
    end
  | None -> ());
  result

let clear t =
  t.fifo.first <- None;
  t.fifo.last <- None;
  t.fifo.count <- 0;
  Int_table.reset t.per_dest;
  Queue.clear t.dest_order;
  Int_table.reset t.index;
  Int_table.reset t.batch_of_src;
  Int_table.reset t.fill_of_src;
  t.total <- 0
