(* Barrier-windowed conservative execution.  Three barriers per round:

     B1  every shard finished the previous window (all posts visible)
     B2  every shard drained its incoming mailboxes (deliveries queued)
     B3  shard 0 published the next-window decision (or Stop)

   Between B2 and B3 shard 0 alone computes the global minimum
   next-event time and runs the caller's [at_barrier] hook, so the hook
   can read cross-shard state without racing.  The mutex-based barrier
   gives the happens-before edges that make the lock-free mailboxes (a
   plain list per directed shard pair, written only by the source
   domain) safe to read on the destination side. *)

module Barrier = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    parties : int;
    mutable count : int;
    mutable phase : int;
  }

  let create parties =
    if parties < 1 then invalid_arg "Shard_exec.Barrier.create: parties must be >= 1";
    { m = Mutex.create (); c = Condition.create (); parties; count = 0; phase = 0 }

  let wait b =
    if b.parties > 1 then begin
      Mutex.lock b.m;
      let phase = b.phase in
      b.count <- b.count + 1;
      if b.count = b.parties then begin
        b.count <- 0;
        b.phase <- phase + 1;
        Condition.broadcast b.c
      end
      else
        while b.phase = phase do
          Condition.wait b.c b.m
        done;
      Mutex.unlock b.m
    end
end

type decision = Stop | Window of float

(* One directed mailbox: this window's messages, newest first, and
   whether they were posted in [compare] order. *)
type 'msg box = { mutable msgs : 'msg list; mutable sorted : bool }

type 'msg t = {
  k : int;
  scheds : Scheduler.t array;
  (* boxes.(src * k + dst): messages posted by shard [src] for shard
     [dst] this window.  Written by src's domain only; read and emptied
     by dst's domain after B1. *)
  boxes : 'msg box array;
  compare : 'msg -> 'msg -> int;
  barrier : Barrier.t;
  mutable decision : decision;  (* written by shard 0 between B2 and B3 *)
  excs : exn option array;
}

let create ~shards ~compare =
  if shards < 1 then invalid_arg "Shard_exec.create: shards must be >= 1";
  {
    k = shards;
    scheds = Array.init shards (fun _ -> Scheduler.create ());
    boxes = Array.init (shards * shards) (fun _ -> { msgs = []; sorted = true });
    compare;
    barrier = Barrier.create shards;
    decision = Stop;
    excs = Array.make shards None;
  }

let shards t = t.k
let sched t i = t.scheds.(i)

let post t ~src ~dst m =
  let prof = Profile.on () in
  if prof then Profile.enter Mailbox_post ~shard:(-1);
  let b = t.boxes.((src * t.k) + dst) in
  (* A source posts in its own execution order, which the simulator's
     key already follows unless a fault stretches some deliveries; one
     comparison here lets the drain skip the sort. *)
  (match b.msgs with
  | last :: _ when b.sorted && t.compare last m > 0 -> b.sorted <- false
  | _ -> ());
  b.msgs <- m :: b.msgs;
  if prof then Profile.leave ()

let drain_into t dst ~deliver =
  (* Hand everything addressed to [dst] to [deliver] in the order of the
     caller's layout-invariant comparator.  It is a total order, so
     posting order is irrelevant: a single mailbox posted in order is
     delivered as it stands, anything else is sorted.  Lists, not
     arrays: a window can hold thousands of messages, and arrays that
     large are allocated outside the minor heap, which made GC counts
     differ from one process to the next. *)
  let filled = ref [] in
  for src = t.k - 1 downto 0 do
    let b = t.boxes.((src * t.k) + dst) in
    match b.msgs with [] -> () | _ -> filled := b :: !filled
  done;
  let ordered =
    match !filled with
    | [] -> []
    | [ b ] when b.sorted -> List.rev b.msgs
    | boxes ->
      List.stable_sort t.compare
        (List.fold_left (fun acc b -> List.rev_append b.msgs acc) [] boxes)
  in
  List.iter
    (fun b ->
      b.msgs <- [];
      b.sorted <- true)
    !filled;
  List.iter (deliver dst) ordered

let run_phase t ~lookahead ~cap ~deliver ?at_barrier () =
  if lookahead <= 0.0 then invalid_arg "Shard_exec.run_phase: lookahead must be positive";
  Array.fill t.excs 0 t.k None;
  t.decision <- Stop;
  let worker d =
    (* Read the profiler arm once per phase: the windows loop is the
       hot path, and a window with profiling off must cost exactly one
       extra branch per section. *)
    let prof = Profile.on () in
    let continue = ref true in
    while !continue do
      if prof then Profile.enter Barrier_wait ~shard:d;
      Barrier.wait t.barrier (* B1: previous window done, posts visible *);
      if prof then Profile.leave ();
      if prof then Profile.enter Mailbox_drain ~shard:d;
      (if t.excs.(d) = None then
         try drain_into t d ~deliver with e -> t.excs.(d) <- Some e);
      if prof then Profile.leave ();
      if prof then Profile.enter Barrier_wait ~shard:d;
      Barrier.wait t.barrier (* B2: mailboxes empty, deliveries queued *);
      if prof then Profile.leave ();
      if d = 0 then begin
        if prof then Profile.enter Decide ~shard:0;
        let failed = Array.exists Option.is_some t.excs in
        let next = ref None in
        if not failed then
          Array.iter
            (fun sched ->
              match Scheduler.next_time sched with
              | None -> ()
              | Some time -> (
                match !next with
                | Some best when best <= time -> ()
                | Some _ | None -> next := Some time))
            t.scheds;
        t.decision <-
          (match !next with
          | Some start when start <= cap ->
            (try
               (match at_barrier with Some f -> f ~now:start | None -> ());
               Window (start +. lookahead)
             with e ->
               t.excs.(0) <- Some e;
               Stop)
          | Some _ | None -> Stop);
        if prof then Profile.leave ()
      end;
      if prof then Profile.enter Barrier_wait ~shard:d;
      Barrier.wait t.barrier (* B3: decision visible *);
      if prof then Profile.leave ();
      match t.decision with
      | Stop -> continue := false
      | Window stop ->
        if t.excs.(d) = None then (
          if prof then Profile.enter Compute ~shard:d;
          (try Scheduler.run_window t.scheds.(d) ~stop ~cap
           with e -> t.excs.(d) <- Some e);
          if prof then Profile.leave ())
    done
  in
  if t.k = 1 then worker 0
  else begin
    let domains = List.init (t.k - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1))) in
    worker 0;
    List.iter Domain.join domains
  end;
  Array.iter (function Some e -> raise e | None -> ()) t.excs

let now t = Array.fold_left (fun acc s -> Float.max acc (Scheduler.now s)) 0.0 t.scheds

let pending t = Array.fold_left (fun acc s -> acc + Scheduler.pending s) 0 t.scheds

let events_executed t =
  Array.fold_left (fun acc s -> acc + Scheduler.events_executed s) 0 t.scheds
