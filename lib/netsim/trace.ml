module Types = Bgp_proto.Types
module Path = Bgp_proto.Path

let no_cause = -1

type event =
  | Update_sent of {
      id : int;
      time : float;
      src : int;
      dst : int;
      update : Types.update;
      cause : int;
    }
  | Update_delivered of {
      id : int;
      time : float;
      src : int;
      dst : int;
      update : Types.update;
      cause : int;
    }
  | Processed of {
      id : int;
      time : float;
      router : int;
      src : int;
      dest : int;
      enqueued : float;
      started : float;
      cause : int;
    }
  | Mrai_flush of {
      id : int;
      time : float;
      router : int;
      peer : int;
      dest : int;
      ready : float;
      cause : int;
    }
  | Router_failed of { id : int; time : float; router : int }
  | Session_down of { id : int; time : float; router : int; peer : int; cause : int }
  | Session_up of { id : int; time : float; router : int; peer : int; cause : int }
  | Fault of { id : int; time : float; label : string; router : int; cause : int }

let id_of = function
  | Update_sent { id; _ }
  | Update_delivered { id; _ }
  | Processed { id; _ }
  | Mrai_flush { id; _ }
  | Router_failed { id; _ }
  | Session_down { id; _ }
  | Session_up { id; _ }
  | Fault { id; _ } ->
    id

let time_of = function
  | Update_sent { time; _ }
  | Update_delivered { time; _ }
  | Processed { time; _ }
  | Mrai_flush { time; _ }
  | Router_failed { time; _ }
  | Session_down { time; _ }
  | Session_up { time; _ }
  | Fault { time; _ } ->
    time

let cause_of = function
  | Update_sent { cause; _ }
  | Update_delivered { cause; _ }
  | Processed { cause; _ }
  | Mrai_flush { cause; _ }
  | Session_down { cause; _ }
  | Session_up { cause; _ }
  | Fault { cause; _ } ->
    cause
  | Router_failed _ -> no_cause

let router_of = function
  | Update_sent { src; _ } -> src
  | Update_delivered { dst; _ } -> dst
  | Processed { router; _ } | Mrai_flush { router; _ } -> router
  | Router_failed { router; _ } | Session_down { router; _ } -> router
  | Session_up { router; _ } | Fault { router; _ } -> router

let dest_of = function
  | Update_sent { update; _ } | Update_delivered { update; _ } ->
    Some (Types.update_dest update)
  | Processed { dest; _ } -> if dest >= 0 then Some dest else None
  | Mrai_flush { dest; _ } -> Some dest
  | Router_failed _ | Session_down _ | Session_up _ | Fault _ -> None

(* Latest event per destination, max (time, id) — the same tie-break the
   network-wide terminal uses, so a destination's terminal is the event
   recorded last among simultaneous ones (causally downstream). *)
let terminals_by_dest events =
  let table = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match dest_of e with
      | None -> ()
      | Some dest -> (
        match Hashtbl.find_opt table dest with
        | None -> Hashtbl.replace table dest e
        | Some best ->
          let te = time_of e and tb = time_of best in
          if te > tb || (te = tb && id_of e > id_of best) then
            Hashtbl.replace table dest e))
    events;
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Hashtbl.fold (fun dest e acc -> (dest, e) :: acc) table [])

let pp_event ppf = function
  | Update_sent { id; time; src; dst; update; cause } ->
    Fmt.pf ppf "%10.4f  #%-6d %3d -> %3d  send %a (cause #%d)" time id src dst
      Types.pp_update update cause
  | Update_delivered { id; time; src; dst; update; cause } ->
    Fmt.pf ppf "%10.4f  #%-6d %3d -> %3d  recv %a (cause #%d)" time id src dst
      Types.pp_update update cause
  | Processed { id; time; router; src; dest; enqueued; started; cause } ->
    Fmt.pf ppf
      "%10.4f  #%-6d router %d processed d%d from %d (enq %.4f, start %.4f, cause #%d)"
      time id router dest src enqueued started cause
  | Mrai_flush { id; time; router; peer; dest; ready; cause } ->
    Fmt.pf ppf
      "%10.4f  #%-6d router %d MRAI flush d%d -> %d (ready %.4f, held %.4f, cause #%d)"
      time id router dest peer ready (time -. ready) cause
  | Router_failed { id; time; router } ->
    Fmt.pf ppf "%10.4f  #%-6d router %d FAILED" time id router
  | Session_down { id; time; router; peer; cause } ->
    Fmt.pf ppf "%10.4f  #%-6d router %d: session to %d down (cause #%d)" time id router
      peer cause
  | Session_up { id; time; router; peer; cause } ->
    Fmt.pf ppf "%10.4f  #%-6d router %d: session to %d up (cause #%d)" time id router
      peer cause
  | Fault { id; time; label; router; cause } ->
    Fmt.pf ppf "%10.4f  #%-6d FAULT %s (router %d, cause #%d)" time id label router
      cause

(* --- JSONL serialization -------------------------------------------------- *)

(* Floats go through {!Json_lite.float_lit} ("%.17g" unless whole), so
   spilled events parse back bit-identical and attribution over a spilled
   trace matches the in-memory result. *)
module J = Json_lite

let update_json = function
  | Types.Advertise { dest; path } ->
    J.Obj
      [
        ("kind", J.Str "advertise");
        ("dest", J.of_int dest);
        ("path", J.Arr (List.map J.of_int (Path.hops path)));
      ]
  | Types.Withdraw dest -> J.Obj [ ("kind", J.Str "withdraw"); ("dest", J.of_int dest) ]

let event_json event =
  let head kind id time rest =
    J.Obj (("type", J.Str kind) :: ("id", J.of_int id) :: ("time", J.of_float time) :: rest)
  in
  let message src dst cause update =
    [
      ("src", J.of_int src);
      ("dst", J.of_int dst);
      ("cause", J.of_int cause);
      ("update", update_json update);
    ]
  in
  let session router peer cause =
    [ ("router", J.of_int router); ("peer", J.of_int peer); ("cause", J.of_int cause) ]
  in
  match event with
  | Update_sent { id; time; src; dst; update; cause } ->
    head "update_sent" id time (message src dst cause update)
  | Update_delivered { id; time; src; dst; update; cause } ->
    head "update_delivered" id time (message src dst cause update)
  | Processed { id; time; router; src; dest; enqueued; started; cause } ->
    head "processed" id time
      [
        ("router", J.of_int router);
        ("src", J.of_int src);
        ("dest", J.of_int dest);
        ("enqueued", J.of_float enqueued);
        ("started", J.of_float started);
        ("cause", J.of_int cause);
      ]
  | Mrai_flush { id; time; router; peer; dest; ready; cause } ->
    head "mrai_flush" id time
      [
        ("router", J.of_int router);
        ("peer", J.of_int peer);
        ("dest", J.of_int dest);
        ("ready", J.of_float ready);
        ("cause", J.of_int cause);
      ]
  | Router_failed { id; time; router } ->
    head "router_failed" id time [ ("router", J.of_int router) ]
  | Session_down { id; time; router; peer; cause } ->
    head "session_down" id time (session router peer cause)
  | Session_up { id; time; router; peer; cause } ->
    head "session_up" id time (session router peer cause)
  | Fault { id; time; label; router; cause } ->
    head "fault" id time
      [ ("label", J.Str label); ("router", J.of_int router); ("cause", J.of_int cause) ]

let event_to_json event = J.to_string (event_json event)

(* Numbers keep their literal in {!Json_lite}, so ints and exact floats
   both survive the round trip.  [path] builds an AS path from its hops. *)
let parse_event ~path line =
  J.try_result @@ fun () ->
    let obj = J.obj (J.parse line) in
    let field = J.field obj in
    let int key = J.int (field key) in
    let fl key = J.float (field key) in
    let str key = J.str (field key) in
    let update () =
      let u = J.obj (field "update") in
      let uint key = J.int (J.field u key) in
      match J.str (J.field u "kind") with
      | "withdraw" -> Types.Withdraw (uint "dest")
      | "advertise" ->
        let hops = List.map J.int (J.arr (J.field u "path")) in
        (* A hop outside the AS id range is bad input, not a caller's bug. *)
        let path = try path hops with Invalid_argument msg -> raise (J.Bad msg) in
        Types.Advertise { dest = uint "dest"; path }
      | _ -> raise (J.Bad "update: unknown kind")
    in
    let id = int "id" and time = fl "time" in
    match str "type" with
    | "update_sent" ->
      Update_sent
        {
          id;
          time;
          src = int "src";
          dst = int "dst";
          update = update ();
          cause = int "cause";
        }
    | "update_delivered" ->
      Update_delivered
        {
          id;
          time;
          src = int "src";
          dst = int "dst";
          update = update ();
          cause = int "cause";
        }
    | "processed" ->
      Processed
        {
          id;
          time;
          router = int "router";
          src = int "src";
          dest = int "dest";
          enqueued = fl "enqueued";
          started = fl "started";
          cause = int "cause";
        }
    | "mrai_flush" ->
      Mrai_flush
        {
          id;
          time;
          router = int "router";
          peer = int "peer";
          dest = int "dest";
          ready = fl "ready";
          cause = int "cause";
        }
    | "router_failed" -> Router_failed { id; time; router = int "router" }
    | "session_down" ->
      Session_down { id; time; router = int "router"; peer = int "peer"; cause = int "cause" }
    | "session_up" ->
      Session_up { id; time; router = int "router"; peer = int "peer"; cause = int "cause" }
    | "fault" ->
      Fault { id; time; label = str "label"; router = int "router"; cause = int "cause" }
    | kind -> raise (J.Bad (Printf.sprintf "unknown event type %S" kind))

let event_of_json ~paths line = parse_event ~path:(Path.of_list paths) line

(* --- Run-meta line --------------------------------------------------------- *)

(* One JSONL line carrying what a trace file cannot reconstruct from its
   events: the trial's seed and failure-injection time.  Appended by
   [finalize] so a seed-suffixed per-trial file is self-describing and a
   merge pass ([Attribution.merge]) can re-analyze it standalone. *)

type run_meta = { seed : int; t_fail : float }

let meta_prefix = "{\"type\":\"meta\""

let meta_to_json m =
  J.to_string
    (J.Obj
       [
         ("type", J.Str "meta");
         ("schema", J.Str "bgp-trace/1");
         ("seed", J.of_int m.seed);
         ("t_fail", J.of_float m.t_fail);
       ])

let is_meta_line line =
  String.length line >= String.length meta_prefix
  && String.sub line 0 (String.length meta_prefix) = meta_prefix

let meta_of_json line =
  J.try_result @@ fun () ->
    let obj = J.obj (J.parse line) in
    { seed = J.int (J.field obj "seed"); t_fail = J.float (J.field obj "t_fail") }

(* The one reader of trace JSONL: [f] sees every event of [path] in order;
   returns the last meta line and the line count.  Errors are values that
   name the file and, for a line that does not parse, its number.  The
   file's paths are built tail-first through one table keyed on the hop
   suffix, so events that carry the same hops, or share a suffix, share
   one spine. *)
let read_lines ~paths path f =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let suffixes = Hashtbl.create 1024 in
    let rec build = function
      | [] -> Path.empty
      | asn :: tail as hops -> (
        match Hashtbl.find_opt suffixes hops with
        | Some p -> p
        | None ->
          let p = Path.cons paths asn (build tail) in
          Hashtbl.add suffixes (Path.hops p) p;
          p)
    in
    let rec go lineno meta =
      match In_channel.input_line ic with
      | None -> Ok (meta, lineno - 1)
      | Some line when is_meta_line line -> (
        match meta_of_json line with
        | Ok m -> go (lineno + 1) (Some m)
        | Error msg -> Error (Printf.sprintf "%s:%d: bad meta line (%s)" path lineno msg))
      | Some line -> (
        match parse_event ~path:build line with
        | Ok event ->
          f event;
          go (lineno + 1) meta
        | Error msg ->
          Error (Printf.sprintf "%s:%d: truncated or malformed line (%s)" path lineno msg))
    in
    go 1 None

(* --- Ring buffer + spill sink --------------------------------------------- *)

(* The spill file is created by the first eviction, not by [create], and
   only lines this trace wrote are ever read back, extended or removed. *)
type sink =
  | Unopened  (* evictions spill; nothing written yet *)
  | Open of out_channel
  | Closed of { written : bool }  (* evictions drop; [written]: the file is ours *)

type t = {
  capacity : int;
  mutable data : event array;  (* grows by doubling up to [capacity] *)
  mutable next : int;  (* next write position *)
  mutable size : int;
  mutable dropped : int;
  mutable spilled : int;
  spill : string option;
  mutable sink : sink;
}

let create ?(capacity = 100_000) ?spill () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    capacity;
    data = [||];
    next = 0;
    size = 0;
    dropped = 0;
    spilled = 0;
    spill;
    sink = (if spill = None then Closed { written = false } else Unopened);
  }

let sink_channel t =
  match (t.sink, t.spill) with
  | Open oc, _ -> Some oc
  | Unopened, Some path ->
    let oc = open_out path in
    t.sink <- Open oc;
    Some oc
  | Unopened, None | Closed _, _ -> None

(* Until the ring first fills, [next = size] and the oldest event sits in
   slot 0, so the array only has to wrap once it has reached [capacity]. *)
let record t event =
  if t.size < t.capacity then begin
    if t.next = Array.length t.data then begin
      let data = Array.make (Stdlib.min t.capacity (Stdlib.max 64 (2 * t.next))) event in
      Array.blit t.data 0 data 0 t.next;
      t.data <- data
    end;
    t.size <- t.size + 1
  end
  else begin
    (* Evicting the oldest event: spill it if a sink is attached. *)
    match sink_channel t with
    | Some oc ->
      output_string oc (event_to_json t.data.(t.next));
      output_char oc '\n';
      t.spilled <- t.spilled + 1
    | None -> t.dropped <- t.dropped + 1
  end;
  t.data.(t.next) <- event;
  t.next <- (t.next + 1) mod t.capacity

let length t = t.size
let capacity t = t.capacity
let dropped t = t.dropped
let spilled t = t.spilled
let spill_path t = t.spill

let close t =
  match t.sink with
  | Open oc ->
    close_out oc;
    t.sink <- Closed { written = true }
  | Unopened -> t.sink <- Closed { written = false }
  | Closed _ -> ()

(* The spill file, flushed, when it holds lines this trace wrote. *)
let written_file t =
  match (t.sink, t.spill) with
  | Open oc, Some path ->
    flush oc;
    Some path
  | Closed { written = true }, Some path -> Some path
  | _ -> None

(* The [i]-th in-memory event, oldest first. *)
let nth t i =
  let s = t.next - t.size + i in
  t.data.(if s < 0 then s + t.capacity else s)

let to_list t = List.init t.size (nth t)

let iter_spilled t f =
  Option.iter
    (fun path ->
      match read_lines ~paths:(Path.create_table ()) path f with
      | Ok _ -> ()
      | Error msg -> failwith ("Trace.events: " ^ msg))
    (written_file t)

let events t =
  let spilled = ref [] in
  iter_spilled t (fun e -> spilled := e :: !spilled);
  List.rev_append !spilled (to_list t)

let iter t f =
  iter_spilled t f;
  for i = 0 to t.size - 1 do
    f (nth t i)
  done

let finalize t ~meta =
  match t.spill with
  | None -> invalid_arg "Trace.finalize: the trace has no spill file"
  | Some path ->
    let mode = if written_file t = None then Open_trunc else Open_append in
    close t;
    let oc = open_out_gen [ Open_wronly; Open_creat; mode ] 0o644 path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun e ->
            output_string oc (event_to_json e);
            output_char oc '\n')
          (to_list t);
        output_string oc (meta_to_json meta);
        output_char oc '\n');
    (* The file is now the complete record; empty the ring so [events]
       (which splices file + ring) does not double-count the tail. *)
    t.sink <- Closed { written = true };
    t.size <- 0;
    t.next <- 0

(* A truncated write (crash mid-spill, partial copy) is a line that does
   not parse, typically the last; as a value, it lets a merge over many
   per-trial files skip or surface the bad file instead of dying. *)
let read_file ~paths path =
  let acc = ref [] in
  match read_lines ~paths path (fun e -> acc := e :: !acc) with
  | Ok (_, 0) -> Error (Printf.sprintf "%s: empty trace file" path)
  | Ok (meta, _) -> Ok (meta, List.rev !acc)
  | Error _ as e -> e

let count t ~pred = List.length (List.filter pred (to_list t))

let sends_by_router t =
  let table = Hashtbl.create 64 in
  List.iter
    (function
      | Update_sent { src; _ } ->
        Hashtbl.replace table src (1 + Option.value ~default:0 (Hashtbl.find_opt table src))
      | Update_delivered _ | Processed _ | Mrai_flush _ | Router_failed _
      | Session_down _ | Session_up _ | Fault _ ->
        ())
    (to_list t);
  List.sort
    (fun (_, a) (_, b) -> Int.compare b a)
    (Hashtbl.fold (fun r c acc -> (r, c) :: acc) table [])

let between t ~lo ~hi =
  List.filter
    (fun e ->
      let time = time_of e in
      time >= lo && time < hi)
    (to_list t)

let dump ?(limit = 50) ppf t =
  let events = to_list t in
  let skip = Stdlib.max 0 (List.length events - limit) in
  if skip > 0 then Fmt.pf ppf "... (%d earlier events)@." skip;
  List.iteri (fun i e -> if i >= skip then Fmt.pf ppf "%a@." pp_event e) events

let clear t =
  t.size <- 0;
  t.next <- 0;
  t.dropped <- 0;
  t.spilled <- 0;
  let path = written_file t in
  (match t.sink with
  | Open oc ->
    close_out oc;
    t.sink <- Unopened
  | Closed _ -> t.sink <- Closed { written = false }
  | Unopened -> ());
  Option.iter Sys.remove path

(* --- Structural digest --------------------------------------------------- *)

(* Every field {!event_json} prints, in its order, as fixed-width binary:
   a kind byte, ints as 8 bytes little-endian, floats as their IEEE bits,
   an AS path as its length then its hops, a label as its length then its
   bytes.  The stream is MD5'd in [chunk]-byte pieces, each together with
   the previous piece's digest, so the buffer stays one chunk long
   however long the trace is. *)
let chunk = 65_536
let limit = 16 + chunk

(* [buf] holds the previous piece's digest (zeros before the first
   piece), then the current piece, then 8 bytes of slack so that a write
   may cross the piece's end before [settle] hashes it. *)
type encoder = { buf : Bytes.t; mutable pos : int }

let settle e =
  if e.pos >= limit then begin
    Bytes.blit_string (Digest.subbytes e.buf 0 limit) 0 e.buf 0 16;
    let over = e.pos - limit in
    Bytes.blit e.buf limit e.buf 16 over;
    e.pos <- 16 + over
  end

let put_byte e c =
  Bytes.set e.buf e.pos (Char.unsafe_chr c);
  e.pos <- e.pos + 1;
  settle e

let put_int e v =
  Bytes.set_int64_le e.buf e.pos (Int64.of_int v);
  e.pos <- e.pos + 8;
  settle e

let put_float e f =
  Bytes.set_int64_le e.buf e.pos (Int64.bits_of_float f);
  e.pos <- e.pos + 8;
  settle e

let put_bytes e s =
  let n = String.length s in
  let rec go off =
    if off < n then begin
      let k = Stdlib.min (n - off) (limit - e.pos) in
      Bytes.blit_string s off e.buf e.pos k;
      e.pos <- e.pos + k;
      settle e;
      go (off + k)
    end
  in
  go 0

let put_path e path =
  put_int e (Path.length path);
  List.iter (put_int e) (Path.hops path)

let put_head e kind id time =
  put_byte e kind;
  put_int e id;
  put_float e time

(* A withdrawal encodes as an advertisement of the empty path with its
   own tag byte, so the tag alone tells them apart. *)
let put_message e kind id time src dst cause update =
  put_head e kind id time;
  put_int e src;
  put_int e dst;
  put_int e cause;
  match update with
  | Types.Advertise { dest; path } ->
    put_byte e 0;
    put_int e dest;
    put_path e path
  | Types.Withdraw dest ->
    put_byte e 1;
    put_int e dest;
    put_path e Path.empty

let put_session e kind id time router peer cause =
  put_head e kind id time;
  put_int e router;
  put_int e peer;
  put_int e cause

let encode e = function
  | Update_sent { id; time; src; dst; update; cause } ->
    put_message e 0 id time src dst cause update
  | Update_delivered { id; time; src; dst; update; cause } ->
    put_message e 1 id time src dst cause update
  | Processed { id; time; router; src; dest; enqueued; started; cause } ->
    put_head e 2 id time;
    put_int e router;
    put_int e src;
    put_int e dest;
    put_float e enqueued;
    put_float e started;
    put_int e cause
  | Mrai_flush { id; time; router; peer; dest; ready; cause } ->
    put_head e 3 id time;
    put_int e router;
    put_int e peer;
    put_int e dest;
    put_float e ready;
    put_int e cause
  | Router_failed { id; time; router } ->
    put_head e 4 id time;
    put_int e router
  | Session_down { id; time; router; peer; cause } -> put_session e 5 id time router peer cause
  | Session_up { id; time; router; peer; cause } -> put_session e 6 id time router peer cause
  | Fault { id; time; label; router; cause } ->
    put_head e 7 id time;
    put_int e (String.length label);
    put_bytes e label;
    put_int e router;
    put_int e cause

let digest ?(prefix = "") t =
  let e = { buf = Bytes.make (limit + 8) '\000'; pos = 16 } in
  put_bytes e prefix;
  iter t (encode e);
  Digest.subbytes e.buf 0 e.pos
