module Runner = Bgp_netsim.Runner
module Stats = Bgp_engine.Stats
module Pool = Bgp_engine.Pool

(* The memo cache is shared by every domain running trials, so it is a
   mutex-protected table with single-flight semantics: the first caller
   to miss on a key installs a [Computing] marker and simulates outside
   the lock; concurrent callers for the same key block on the condition
   variable instead of simulating the same (scenario, trials) twice. *)

type entry = Done of Runner.result list | Computing

let lock = Mutex.create ()
let cond = Condition.create ()
let cache : (string, entry) Hashtbl.t = Hashtbl.create 64

let key scenario trials =
  Digest.string (Marshal.to_string (scenario, trials) [])

let trial_scenarios scenario trials =
  List.init trials (fun i -> { scenario with Runner.seed = scenario.Runner.seed + i })

(* Claims are dropped when their computation fails, so a later caller
   retries.  A concurrent [clear_cache] may have removed a claim already;
   only still-pending markers are touched. *)
let drop_claim k =
  match Hashtbl.find_opt cache k with
  | Some Computing -> Hashtbl.remove cache k
  | Some (Done _) | None -> ()

(* [specs] carry their keys, so each key is digested once per request. *)
let fill ?jobs specs =
  (* Claim every uncached key in one pass; a key listed twice is only
     claimed once (the second occurrence sees the Computing marker). *)
  Mutex.lock lock;
  let claimed =
    List.filter
      (fun (k, _, _) ->
        match Hashtbl.find_opt cache k with
        | Some _ -> false
        | None ->
          Hashtbl.replace cache k Computing;
          true)
      specs
  in
  Mutex.unlock lock;
  match claimed with
  | [] -> ()
  | _ -> (
    (* One flat batch over every (scenario, seed) pair so the pool sees
       the full width of the sweep, not one point's trials at a time. *)
    let runs = List.concat_map (fun (_, s, t) -> trial_scenarios s t) claimed in
    match Pool.map ?jobs Runner.run runs with
    | all ->
      Mutex.lock lock;
      let rest = ref all in
      List.iter
        (fun (k, _, t) ->
          let rec split n acc l =
            if n = 0 then (List.rev acc, l)
            else
              match l with
              | x :: tl -> split (n - 1) (x :: acc) tl
              | [] -> assert false
          in
          let mine, tl = split t [] !rest in
          rest := tl;
          Hashtbl.replace cache k (Done mine))
        claimed;
      Condition.broadcast cond;
      Mutex.unlock lock
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.lock lock;
      List.iter (fun (k, _, _) -> drop_claim k) claimed;
      Condition.broadcast cond;
      Mutex.unlock lock;
      Printexc.raise_with_backtrace e bt)

let prefetch ?jobs specs = fill ?jobs (List.map (fun (s, t) -> (key s t, s, t)) specs)

(* Fill the entry (a no-op when it is cached or another domain is
   computing it), then wait for it.  An entry that is gone again was a
   failed claim some other domain dropped, or [clear_cache] removed it:
   claim it afresh. *)
let results ?jobs scenario ~trials =
  let k = key scenario trials in
  (* With [lock] held. *)
  let rec await () =
    match Hashtbl.find_opt cache k with
    | Some (Done r) -> Some r
    | Some Computing ->
      Condition.wait cond lock;
      await ()
    | None -> None
  in
  let rec go () =
    fill ?jobs [ (k, scenario, trials) ];
    Mutex.lock lock;
    let r = await () in
    Mutex.unlock lock;
    match r with Some r -> r | None -> go ()
  in
  go ()

let summary metric results =
  let stats = Stats.create () in
  List.iter (fun r -> Stats.add stats (metric r)) results;
  Stats.summarize stats

let mean_of metric results = (summary metric results).Stats.mean
let sd_of metric results = (summary metric results).Stats.stddev

let point ?jobs scenario ~trials ~x ~metric =
  let r = results ?jobs scenario ~trials in
  let s = summary metric r in
  { Figure.x; y = s.Stats.mean; sd = s.Stats.stddev }

let clear_cache () =
  Mutex.lock lock;
  Hashtbl.reset cache;
  (* Waiters blocked on a Computing marker must re-check: the marker is
     gone, so they re-claim and recompute rather than wait forever. *)
  Condition.broadcast cond;
  Mutex.unlock lock

let cache_size () =
  Mutex.lock lock;
  let n = Hashtbl.length cache in
  Mutex.unlock lock;
  n
