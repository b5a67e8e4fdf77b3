(* Exact span totals over CLOCK_MONOTONIC.  See the .mli for the session
   model; the implementation notes here cover the concurrency story.

   Recording never takes a lock: each domain owns a recorder reached
   through Domain.DLS, created lazily on first use and registered (one
   mutex acquisition, once per domain per session) so [stop] can find
   it.  A session generation counter invalidates recorders left in DLS
   by earlier sessions — a pool domain that outlives two sessions gets
   fresh totals for the second.  [stop] runs while pool/shard domains
   are quiescent (the engine joins them before reports are cut), so
   reading totals without a lock is safe by the same join-ordering
   argument the mailboxes use. *)

external now_ns : unit -> (int64[@unboxed])
  = "bgp_prof_clock_ns" "bgp_prof_clock_ns_unboxed"
[@@noalloc]

(* Nanoseconds as an immediate int, so storing one allocates nothing. *)
let clock () = Int64.to_int (now_ns ())

type span_kind =
  | Compute
  | Barrier_wait
  | Mailbox_drain
  | Mailbox_post
  | Decide
  | Merge
  | Pool_job
  | Pool_wait
  | Build
  | Warmup
  | Fail
  | Converge
  | Finalize

(* In declaration order: [kinds.(kind_index k) = k]. *)
let kinds =
  [| Compute; Barrier_wait; Mailbox_drain; Mailbox_post; Decide; Merge; Pool_job;
     Pool_wait; Build; Warmup; Fail; Converge; Finalize |]

let names =
  [| "compute"; "barrier_wait"; "mailbox_drain"; "mailbox_post"; "decide"; "merge";
     "pool_job"; "pool_wait"; "build"; "warmup"; "fail"; "converge"; "finalize" |]

let n_kinds = Array.length kinds

let kind_index = function
  | Compute -> 0
  | Barrier_wait -> 1
  | Mailbox_drain -> 2
  | Mailbox_post -> 3
  | Decide -> 4
  | Merge -> 5
  | Pool_job -> 6
  | Pool_wait -> 7
  | Build -> 8
  | Warmup -> 9
  | Fail -> 10
  | Converge -> 11
  | Finalize -> 12

(* Stable lower-snake names for JSON and flamegraph output. *)
let span_name k = names.(kind_index k)

(* --- Session state ------------------------------------------------------- *)

(* One [(kind, shard)] total, and one open span.  Both are preallocated,
   so a span allocates nothing. *)
type cell = {
  mutable total : int;
  mutable self : int;
  mutable n : int;
  mutable max : int;
}

type frame = { mutable key : int; mutable t0 : int; mutable child : int }

type recorder = {
  gen : int;
  r_dom : int;
  mutable cells : cell array;
      (* by [key = (shard + 1) * n_kinds + kind_index]; widens to the
         largest shard seen, never with the span count *)
  mutable frames : frame array;  (* open spans, innermost at [depth - 1] *)
  mutable depth : int;
}

let cell () = { total = 0; self = 0; n = 0; max = 0 }
let frame () = { key = 0; t0 = 0; child = 0 }
let widen a n make = Array.init n (fun i -> if i < Array.length a then a.(i) else make ())

let armed = Atomic.make false
let generation = Atomic.make 0

(* [start]'s GC and clock readings, read back by [stop] on the same
   domain; [None] when no session is armed. *)
let session : (Gc.stat * int) option ref = ref None
let registry_mu = Mutex.create ()
let registry : recorder list ref = ref []
let counters : (string, int) Hashtbl.t = Hashtbl.create 16

let dls_key : recorder option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let fresh_recorder () =
  let r =
    {
      gen = Atomic.get generation;
      r_dom = (Domain.self () :> int);
      cells = Array.init (2 * n_kinds) (fun _ -> cell ());
      frames = Array.init 8 (fun _ -> frame ());
      depth = 0;
    }
  in
  Mutex.lock registry_mu;
  registry := r :: !registry;
  Mutex.unlock registry_mu;
  r

let recorder () =
  let slot = Domain.DLS.get dls_key in
  match !slot with
  | Some r when r.gen = Atomic.get generation -> r
  | Some _ | None ->
    let r = fresh_recorder () in
    slot := Some r;
    r

let on () = Atomic.get armed

let start () =
  Mutex.lock registry_mu;
  registry := [];
  Hashtbl.reset counters;
  Mutex.unlock registry_mu;
  Atomic.incr generation;
  session := Some (Gc.quick_stat (), clock ());
  Atomic.set armed true

let enter kind ~shard =
  if Atomic.get armed then begin
    let r = recorder () in
    let key = ((shard + 1) * n_kinds) + kind_index kind in
    if key >= Array.length r.cells then
      r.cells <- widen r.cells (key + n_kinds - (key mod n_kinds)) cell;
    if r.depth = Array.length r.frames then
      r.frames <- widen r.frames (2 * r.depth) frame;
    let f = r.frames.(r.depth) in
    r.depth <- r.depth + 1;
    f.key <- key;
    f.child <- 0;
    f.t0 <- clock ()
  end

let leave () =
  if Atomic.get armed then begin
    let t1 = clock () in
    let r = recorder () in
    if r.depth > 0 then begin
      r.depth <- r.depth - 1;
      let f = r.frames.(r.depth) in
      let d = t1 - f.t0 and c = r.cells.(f.key) in
      c.total <- c.total + d;
      c.self <- c.self + d - f.child;
      c.n <- c.n + 1;
      if d > c.max then c.max <- d;
      if r.depth > 0 then begin
        let parent = r.frames.(r.depth - 1) in
        parent.child <- parent.child + d
      end
    end
  end

let within kind f =
  if not (Atomic.get armed) then f ()
  else begin
    enter kind ~shard:(-1);
    Fun.protect ~finally:leave f
  end

let counter_max name v =
  if Atomic.get armed then begin
    Mutex.lock registry_mu;
    let prev = Option.value ~default:0 (Hashtbl.find_opt counters name) in
    Hashtbl.replace counters name (max prev v);
    Mutex.unlock registry_mu
  end

(* --- Reports ------------------------------------------------------------- *)

type span_total = {
  kind : span_kind;
  shard : int;
  total_ns : int;
  self_ns : int;
  count : int;
  max_ns : int;
}

type domain_report = { dom : int; spans : span_total list }

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  heap_words : int;
}

type report = {
  wall_ns : int;
  gc : gc_delta;
  domains : domain_report list;
  counters : (string * int) list;
}

let collect_recorder r =
  let spans = ref [] in
  for k = n_kinds - 1 downto 0 do
    for s = (Array.length r.cells / n_kinds) - 1 downto 0 do
      let c = r.cells.((s * n_kinds) + k) in
      if c.n > 0 then
        spans :=
          { kind = kinds.(k); shard = s - 1; total_ns = c.total; self_ns = c.self;
            count = c.n; max_ns = c.max }
          :: !spans
    done
  done;
  { dom = r.r_dom; spans = !spans }

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    major_words = b.major_words -. a.major_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
    heap_words = b.heap_words;
  }

let stop () =
  match !session with
  | None -> None
  | Some (gc_start, t0) ->
    Atomic.set armed false;
    session := None;
    let wall_ns = clock () - t0 in
    let gc = gc_delta gc_start (Gc.quick_stat ()) in
    Mutex.lock registry_mu;
    let recs = !registry in
    let counts = Hashtbl.fold (fun name v acc -> (name, v) :: acc) counters [] in
    registry := [];
    Hashtbl.reset counters;
    Mutex.unlock registry_mu;
    let domains =
      List.map collect_recorder recs |> List.sort (fun a b -> compare a.dom b.dom)
    in
    let counters = List.sort (fun (a, _) (b, _) -> String.compare a b) counts in
    Some { wall_ns; gc; domains; counters }

(* --- JSON (bgp-prof/2) --------------------------------------------------- *)

module J = Json_lite

let seconds ns = J.of_float (float_of_int ns /. 1e9)

let to_json r =
  let row s =
    J.Obj
      [
        ("span", J.Str (span_name s.kind));
        ("shard", J.of_int s.shard);
        ("total_s", seconds s.total_ns);
        ("self_s", seconds s.self_ns);
        ("count", J.of_int s.count);
        ("max_s", seconds s.max_ns);
      ]
  in
  let domain d =
    J.Obj [ ("domain", J.of_int d.dom); ("spans", J.Arr (List.map row d.spans)) ]
  in
  J.to_string
    (J.Obj
       [
         ("schema", J.Str "bgp-prof/2");
         ("wall_s", seconds r.wall_ns);
         ( "gc",
           J.Obj
             [
               ("minor_words", J.of_float r.gc.minor_words);
               ("promoted_words", J.of_float r.gc.promoted_words);
               ("major_words", J.of_float r.gc.major_words);
               ("minor_collections", J.of_int r.gc.minor_collections);
               ("major_collections", J.of_int r.gc.major_collections);
               ("heap_words", J.of_int r.gc.heap_words);
             ] );
         ("counters", J.Obj (List.map (fun (name, v) -> (name, J.of_int v)) r.counters));
         ("domains", J.Arr (List.map domain r.domains));
       ])

(* --- Flamegraph ---------------------------------------------------------- *)

let to_flamegraph r =
  let b = Buffer.create 1024 in
  List.iter
    (fun d ->
      List.iter
        (fun s ->
          let shard = if s.shard >= 0 then Printf.sprintf "shard%d;" s.shard else "" in
          Printf.bprintf b "domain%d;%s%s %d\n" d.dom shard (span_name s.kind)
            (s.self_ns / 1000))
        d.spans)
    r.domains;
  Buffer.contents b
