(* Per-domain span rings over CLOCK_MONOTONIC.  See the .mli for the
   session model; the implementation notes here cover the concurrency
   story.

   Recording never takes a lock: each domain owns a recorder reached
   through Domain.DLS, created lazily on first use and registered (one
   mutex acquisition, once per domain per session) so [stop] can find
   it.  A session generation counter invalidates recorders left in DLS
   by earlier sessions — a pool domain that outlives two sessions gets a
   fresh ring for the second.  [stop] runs while pool/shard domains are
   quiescent (the engine joins them before reports are cut), so reading
   rings without a lock is safe by the same join-ordering argument the
   mailboxes use. *)

external now_ns : unit -> (int64[@unboxed])
  = "bgp_prof_clock_ns" "bgp_prof_clock_ns_unboxed"
[@@noalloc]

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

let span_name = function
  | Compute -> "compute"
  | Barrier_wait -> "barrier_wait"
  | Mailbox_drain -> "mailbox_drain"
  | Mailbox_post -> "mailbox_post"
  | Decide -> "decide"
  | Merge -> "merge"
  | Pool_job -> "pool_job"
  | Pool_wait -> "pool_wait"
  | Build -> "build"
  | Warmup -> "warmup"
  | Fail -> "fail"
  | Converge -> "converge"
  | Finalize -> "finalize"

let phase_kind = function
  | Build | Warmup | Fail | Converge | Finalize -> true
  | Compute | Barrier_wait | Mailbox_drain | Mailbox_post | Decide | Merge
  | Pool_job | Pool_wait ->
    false

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

let n_kinds = 13

let kind_of_index = function
  | 0 -> Compute
  | 1 -> Barrier_wait
  | 2 -> Mailbox_drain
  | 3 -> Mailbox_post
  | 4 -> Decide
  | 5 -> Merge
  | 6 -> Pool_job
  | 7 -> Pool_wait
  | 8 -> Build
  | 9 -> Warmup
  | 10 -> Fail
  | 11 -> Converge
  | 12 -> Finalize
  | _ -> assert false

(* --- Session state ------------------------------------------------------- *)

let ring_cap = 65_536

type recorder = {
  gen : int;
  r_dom : int;
  kinds : int array;
  r_shards : int array;
  t0s : int64 array;
  t1s : int64 array;
  mutable len : int;  (* total records; ring slot is [len mod ring_cap] *)
  acc_ns : int64 array;  (* per span kind *)
  acc_n : int array;
  gc0 : Gc.stat;  (* quick_stat at recorder creation *)
}

let armed = Atomic.make false
let generation = Atomic.make 0
let t_start = Atomic.make 0L
let registry_mu = Mutex.create ()
let registry : recorder list ref = ref []
let counters : (string, int ref) Hashtbl.t = Hashtbl.create 16

let dls_key : recorder option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let fresh_recorder () =
  let r =
    {
      gen = Atomic.get generation;
      r_dom = (Domain.self () :> int);
      kinds = Array.make ring_cap 0;
      r_shards = Array.make ring_cap (-1);
      t0s = Array.make ring_cap 0L;
      t1s = Array.make ring_cap 0L;
      len = 0;
      acc_ns = Array.make n_kinds 0L;
      acc_n = Array.make n_kinds 0;
      gc0 = Gc.quick_stat ();
    }
  in
  Mutex.lock registry_mu;
  registry := r :: !registry;
  Mutex.unlock registry_mu;
  r

let recorder () =
  let cell = Domain.DLS.get dls_key in
  match !cell with
  | Some r when r.gen = Atomic.get generation -> r
  | Some _ | None ->
    let r = fresh_recorder () in
    cell := Some r;
    r

let on () = Atomic.get armed

let start () =
  Mutex.lock registry_mu;
  registry := [];
  Hashtbl.reset counters;
  Mutex.unlock registry_mu;
  Atomic.incr generation;
  Atomic.set t_start (now_ns ());
  Atomic.set armed true

let record kind ?(shard = -1) t0 =
  if Atomic.get armed then begin
    let t1 = now_ns () in
    let r = recorder () in
    let slot = r.len mod ring_cap in
    r.kinds.(slot) <- kind_index kind;
    r.r_shards.(slot) <- shard;
    r.t0s.(slot) <- t0;
    r.t1s.(slot) <- t1;
    r.len <- r.len + 1
  end

let accum kind t0 =
  if Atomic.get armed then begin
    let t1 = now_ns () in
    let r = recorder () in
    let i = kind_index kind in
    r.acc_ns.(i) <- Int64.add r.acc_ns.(i) (Int64.sub t1 t0);
    r.acc_n.(i) <- r.acc_n.(i) + 1
  end

let counter_bump name v ~combine =
  if Atomic.get armed then begin
    Mutex.lock registry_mu;
    (match Hashtbl.find_opt counters name with
    | Some cell -> cell := combine !cell v
    | None -> Hashtbl.add counters name (ref (combine 0 v)));
    Mutex.unlock registry_mu
  end

let counter_add name v = counter_bump name v ~combine:( + )
let counter_max name v = counter_bump name v ~combine:max

(* --- Reports ------------------------------------------------------------- *)

type span = { kind : span_kind; shard : int; t0_ns : int64; t1_ns : int64 }
type accum_entry = { a_kind : span_kind; a_ns : int64; a_count : int }

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  heap_words : int;
}

type domain_report = {
  dom : int;
  spans : span list;
  dropped : int;
  accums : accum_entry list;
  gc : gc_delta;
}

type report = {
  wall_ns : int64;
  domains : domain_report list;
  counters : (string * int) list;
}

let collect_recorder r =
  (* The recorder's own domain is quiescent (joined or ourselves) by the
     time stop runs; plain reads suffice. *)
  let stored = min r.len ring_cap in
  let dropped = r.len - stored in
  let first = if r.len > ring_cap then r.len mod ring_cap else 0 in
  let spans =
    List.init stored (fun i ->
        let slot = (first + i) mod ring_cap in
        {
          kind = kind_of_index r.kinds.(slot);
          shard = r.r_shards.(slot);
          t0_ns = r.t0s.(slot);
          t1_ns = r.t1s.(slot);
        })
  in
  let accums =
    List.filter_map
      (fun i ->
        if r.acc_n.(i) = 0 then None
        else
          Some { a_kind = kind_of_index i; a_ns = r.acc_ns.(i); a_count = r.acc_n.(i) })
      (List.init n_kinds Fun.id)
  in
  let gc1 = Gc.quick_stat () in
  let gc =
    (* Deltas are meaningful only for the domain calling stop; for other
       domains quick_stat here reads the stopping domain again, so take
       the recorder's own start point and the best end point we have.
       In practice recorders on worker domains are collected after the
       workers were joined, and OCaml folds their GC totals into the
       joining domain — the per-domain deltas are attributed to where
       the recorder started, which is what the report documents. *)
    {
      minor_words = gc1.Gc.minor_words -. r.gc0.Gc.minor_words;
      promoted_words = gc1.Gc.promoted_words -. r.gc0.Gc.promoted_words;
      major_words = gc1.Gc.major_words -. r.gc0.Gc.major_words;
      minor_collections = gc1.Gc.minor_collections - r.gc0.Gc.minor_collections;
      major_collections = gc1.Gc.major_collections - r.gc0.Gc.major_collections;
      heap_words = gc1.Gc.heap_words;
    }
  in
  { dom = r.r_dom; spans; dropped; accums; gc }

let stop () =
  if not (Atomic.get armed) then None
  else begin
    Atomic.set armed false;
    let wall_ns = Int64.sub (now_ns ()) (Atomic.get t_start) in
    Mutex.lock registry_mu;
    let recs = !registry in
    let counts =
      Hashtbl.fold (fun name cell acc -> (name, !cell) :: acc) counters []
    in
    registry := [];
    Hashtbl.reset counters;
    Mutex.unlock registry_mu;
    let domains =
      List.map collect_recorder recs
      |> List.sort (fun a b -> compare a.dom b.dom)
    in
    let counters = List.sort (fun (a, _) (b, _) -> String.compare a b) counts in
    Some { wall_ns; domains; counters }
  end

(* --- Aggregation --------------------------------------------------------- *)

let ns_to_s ns = Int64.to_float ns /. 1e9

(* (kind, shard) -> (total_ns, count, max_ns), sorted for stable output. *)
let aggregate_spans spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = Int64.sub s.t1_ns s.t0_ns in
      let key = (kind_index s.kind, s.shard) in
      match Hashtbl.find_opt tbl key with
      | Some (total, n, mx) ->
        Hashtbl.replace tbl key (Int64.add total d, n + 1, Int64.max mx d)
      | None -> Hashtbl.add tbl key (d, 1, d))
    spans;
  Hashtbl.fold (fun (ki, shard) (total, n, mx) acc -> (ki, shard, total, n, mx) :: acc) tbl []
  |> List.sort compare

(* Phase self-time: a phase span minus every leaf span on the same
   domain whose start lies inside it.  Leaves never overlap each other
   on one domain (they are sequential sections of the same loop), so
   subtracting totals is exact up to clock resolution. *)
let phase_self dom_report =
  let phases =
    List.filter (fun s -> phase_kind s.kind) dom_report.spans
    |> List.map (fun s -> (s, ref (Int64.sub s.t1_ns s.t0_ns)))
  in
  List.iter
    (fun leaf ->
      if not (phase_kind leaf.kind) then
        List.iter
          (fun (p, self) ->
            if leaf.t0_ns >= p.t0_ns && leaf.t0_ns < p.t1_ns then
              self := Int64.sub !self (Int64.sub leaf.t1_ns leaf.t0_ns))
          phases)
    dom_report.spans;
  List.map (fun (p, self) -> (p.kind, Int64.max 0L !self)) phases

(* --- JSON (bgp-prof/1) --------------------------------------------------- *)

module J = Json_lite

let seconds ns = J.of_float (ns_to_s ns)

let to_json r =
  let domain d =
    J.Obj
      [
        ("domain", J.of_int d.dom);
        ("dropped", J.of_int d.dropped);
        ( "spans",
          J.Arr
            (List.map
               (fun (ki, shard, total, n, mx) ->
                 J.Obj
                   [
                     ("span", J.Str (span_name (kind_of_index ki)));
                     ("shard", J.of_int shard);
                     ("total_s", seconds total);
                     ("count", J.of_int n);
                     ("max_s", seconds mx);
                   ])
               (aggregate_spans d.spans)) );
        ( "accums",
          J.Arr
            (List.map
               (fun a ->
                 J.Obj
                   [
                     ("span", J.Str (span_name a.a_kind));
                     ("total_s", seconds a.a_ns);
                     ("count", J.of_int a.a_count);
                   ])
               d.accums) );
        ( "gc",
          J.Obj
            [
              ("minor_words", J.of_float d.gc.minor_words);
              ("promoted_words", J.of_float d.gc.promoted_words);
              ("major_words", J.of_float d.gc.major_words);
              ("minor_collections", J.of_int d.gc.minor_collections);
              ("major_collections", J.of_int d.gc.major_collections);
              ("heap_words", J.of_int d.gc.heap_words);
            ] );
      ]
  in
  J.to_string
    (J.Obj
       [
         ("schema", J.Str "bgp-prof/1");
         ("wall_s", seconds r.wall_ns);
         ("domains", J.Arr (List.map domain r.domains));
         ("counters", J.Obj (List.map (fun (name, v) -> (name, J.of_int v)) r.counters));
       ])

(* --- Flamegraph ---------------------------------------------------------- *)

let us ns = Int64.to_int (Int64.div ns 1_000L)

let to_flamegraph r =
  let b = Buffer.create 1024 in
  List.iter
    (fun d ->
      (* Leaf spans, aggregated by (kind, shard). *)
      List.iter
        (fun (ki, shard, total, _n, _mx) ->
          let kind = kind_of_index ki in
          if not (phase_kind kind) then
            if shard >= 0 then
              Buffer.add_string b
                (Printf.sprintf "domain%d;shard%d;%s %d\n" d.dom shard
                   (span_name kind) (us total))
            else
              Buffer.add_string b
                (Printf.sprintf "domain%d;%s %d\n" d.dom (span_name kind) (us total)))
        (aggregate_spans d.spans);
      (* Accumulators are leaves, except Pool_job: a pool job *contains*
         the runner phases executed on that domain (a trial runs inside
         its pool job), so render its self-time — the accumulated total
         minus the gross phase spans recorded on the same domain. *)
      let phase_gross =
        List.fold_left
          (fun acc s ->
            if phase_kind s.kind then Int64.add acc (Int64.sub s.t1_ns s.t0_ns)
            else acc)
          0L d.spans
      in
      List.iter
        (fun a ->
          let ns =
            if a.a_kind = Pool_job then
              Int64.max 0L (Int64.sub a.a_ns phase_gross)
            else a.a_ns
          in
          Buffer.add_string b
            (Printf.sprintf "domain%d;%s %d\n" d.dom (span_name a.a_kind) (us ns)))
        d.accums;
      (* Phases at self-time, folded over repeats of the same kind. *)
      let totals = Hashtbl.create 8 in
      List.iter
        (fun (kind, self) ->
          let i = kind_index kind in
          let prev = Option.value ~default:0L (Hashtbl.find_opt totals i) in
          Hashtbl.replace totals i (Int64.add prev self))
        (phase_self d);
      Hashtbl.fold (fun i total acc -> (i, total) :: acc) totals []
      |> List.sort compare
      |> List.iter (fun (i, total) ->
             Buffer.add_string b
               (Printf.sprintf "domain%d;%s %d\n" d.dom
                  (span_name (kind_of_index i))
                  (us total))))
    r.domains;
  Buffer.contents b
