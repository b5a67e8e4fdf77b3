(* Domain work pool: a mutex-protected deque of job indices drained by
   [max 1 (min jobs n)] workers (the caller plus the rest as spawned
   domains).  Results land in a per-index slot, so output order equals
   input order no matter which domain ran which job. *)

let default = Atomic.make 0 (* 0 = unset, resolve lazily *)

let set_default_jobs n =
  if n < 1 then invalid_arg "Pool.set_default_jobs: job count must be >= 1";
  Atomic.set default n

let default_jobs () =
  match Atomic.get default with
  | 0 -> Domain.recommended_domain_count ()
  | n -> n

type domain_stat = { domain : int; jobs : int }

let last = Atomic.make []
let last_batch () = Atomic.get last

(* The work queue: indices 0..n-1, taken front-first. *)
type deque = { m : Mutex.t; mutable items : int list }

let take dq =
  Mutex.lock dq.m;
  let r =
    match dq.items with
    | [] -> None
    | i :: rest ->
      dq.items <- rest;
      Some i
  in
  Mutex.unlock dq.m;
  r

(* First failure by input index, so the re-raised exception is
   deterministic even when several jobs raise on different domains. *)
type failure = { fm : Mutex.t; mutable err : (int * exn * Printexc.raw_backtrace) option }

let record_failure fl i e bt =
  Mutex.lock fl.fm;
  (match fl.err with
  | Some (j, _, _) when j <= i -> ()
  | _ -> fl.err <- Some (i, e, bt));
  Mutex.unlock fl.fm

let map ?jobs f xs =
  let jobs =
    match jobs with
    | None -> default_jobs ()
    | Some j when j >= 1 -> j
    | Some _ -> invalid_arg "Pool.map: job count must be >= 1"
  in
  let input = Array.of_list xs in
  let n = Array.length input in
  let nworkers = max 1 (min jobs n) in
  let w_jobs = Array.make nworkers 0 in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set last (List.init nworkers (fun w -> { domain = w; jobs = w_jobs.(w) })))
    (fun () ->
      let results = Array.make n None in
      let queue = { m = Mutex.create (); items = List.init n Fun.id } in
      let failed = { fm = Mutex.create (); err = None } in
      let worker w () =
        (* Every job runs even after a failure elsewhere: that keeps
           the re-raised exception deterministic (lowest input index)
           instead of depending on which domain noticed a flag first. *)
        let prof = Profile.on () in
        let rec loop () =
          if prof then Profile.enter Pool_wait ~shard:(-1);
          let next = take queue in
          if prof then Profile.leave ();
          match next with
          | None -> ()
          | Some i ->
            if prof then Profile.enter Pool_job ~shard:(-1);
            (match f input.(i) with
            | y -> results.(i) <- Some y
            | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              record_failure failed i e bt);
            w_jobs.(w) <- w_jobs.(w) + 1;
            if prof then Profile.leave ();
            loop ()
        in
        loop ()
      in
      let domains = List.init (nworkers - 1) (fun w -> Domain.spawn (worker (w + 1))) in
      worker 0 ();
      List.iter Domain.join domains;
      match failed.err with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
        Array.to_list (Array.map (function Some y -> y | None -> assert false) results))
