(* Domain work pool: a mutex-protected deque of job indices drained by
   [jobs] workers (the caller plus [jobs - 1] spawned domains).  Results
   land in a per-index slot, so output order equals input order no
   matter which domain ran which job. *)

let default = Atomic.make 0 (* 0 = unset, resolve lazily *)

let set_default_jobs n =
  if n < 1 then invalid_arg "Pool.set_default_jobs: job count must be >= 1";
  Atomic.set default n

let default_jobs () =
  match Atomic.get default with
  | 0 -> Domain.recommended_domain_count ()
  | n -> n

type domain_stat = { domain : int; jobs : int; busy : float; wait : float }

let last = Atomic.make []
let last_batch () = Atomic.get last

let now = Unix.gettimeofday

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

let sequential_map f xs =
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set last
        [ { domain = 0; jobs = List.length xs; busy = now () -. t0; wait = 0.0 } ])
    (fun () -> List.map f xs)

(* The per-domain breakdown is wall-clock based: each worker times its
   own job executions ([busy]) and its waits on the work deque ([wait]). *)
let map ?jobs f xs =
  let jobs =
    match jobs with
    | None -> default_jobs ()
    | Some j when j >= 1 -> j
    | Some _ -> invalid_arg "Pool.map: job count must be >= 1"
  in
  let n = List.length xs in
  if jobs = 1 || n <= 1 then sequential_map f xs
  else begin
    let nworkers = min jobs n in
    let w_jobs = Array.make nworkers 0 in
    let w_busy = Array.make nworkers 0.0 in
    let w_wait = Array.make nworkers 0.0 in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set last
          (List.init nworkers (fun w ->
               { domain = w; jobs = w_jobs.(w); busy = w_busy.(w); wait = w_wait.(w) })))
      (fun () ->
        let input = Array.of_list xs in
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
            let t_take = now () in
            let next = take queue in
            w_wait.(w) <- w_wait.(w) +. (now () -. t_take);
            if prof then Profile.leave ();
            match next with
            | None -> ()
            | Some i ->
              if prof then Profile.enter Pool_job ~shard:(-1);
              let t_job = now () in
              (match f input.(i) with
              | y -> results.(i) <- Some y
              | exception e ->
                let bt = Printexc.get_raw_backtrace () in
                record_failure failed i e bt);
              w_busy.(w) <- w_busy.(w) +. (now () -. t_job);
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
          Array.to_list
            (Array.map (function Some y -> y | None -> assert false) results))
  end
