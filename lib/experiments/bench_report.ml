module Pool = Bgp_engine.Pool

type entry = {
  id : string;
  title : string;
  kind : string;
  wall : float;
  cpu : float;
  speedup : float;
  sim_runs : int;
  batches : int;
  queue_wait : float;
  per_domain : Pool.domain_stat list;
  verdicts_pass : int;
  verdicts_total : int;
}

type micro = {
  name : string;
  iters : int;
  micro_wall : float;
  ns_per_op : float;
  ops_per_s : float;
}

type attribution = {
  attr_scenario : string;
  attr_delay : float;
  attr_queueing : float;
  attr_processing : float;
  attr_mrai_hold : float;
  attr_propagation : float;
  attr_hops : int;
  attr_complete : bool;
  attr_dests : int;
  attr_tail_p50 : float;
  attr_tail_p95 : float;
  attr_tail_p99 : float;
  attr_straggler_dest : int;
  attr_straggler_tail : float;
}

(* Where the harness's wall time went: a flat rendering of a
   Bgp_engine.Profile report (see Profile.summarize), kept as plain rows
   so this module stays decoupled from the profiler's span types. *)
type profile = {
  prof_wall : float;  (* profiled wall time, seconds *)
  prof_queue_wait : float;  (* cumulative pool queue wait, seconds *)
  prof_spans : (string * float * int) list;  (* label, seconds, count *)
  prof_counters : (string * int) list;
}

type t = {
  trials : int;
  n : int;
  jobs : int;
  mutable entries_rev : entry list;
  mutable micros_rev : micro list;
  mutable attribution : attribution option;
  mutable profile : profile option;
}

let create ~trials ~n ~jobs =
  {
    trials;
    n;
    jobs;
    entries_rev = [];
    micros_rev = [];
    attribution = None;
    profile = None;
  }

let set_attribution t a = t.attribution <- Some a
let attribution t = t.attribution
let set_profile t p = t.profile <- Some p
let profile t = t.profile

let micro ~name ~iters ~wall =
  let per_op = if iters > 0 then wall /. float_of_int iters else 0.0 in
  {
    name;
    iters;
    micro_wall = wall;
    ns_per_op = per_op *. 1e9;
    ops_per_s = (if per_op > 0.0 then 1.0 /. per_op else 0.0);
  }

let add_micro t m = t.micros_rev <- m :: t.micros_rev
let micros t = List.rev t.micros_rev

let entry ~id ~title ~kind ~wall ~pool ~per_domain ~verdicts_pass ~verdicts_total =
  {
    id;
    title;
    kind;
    wall;
    cpu = pool.Pool.busy;
    speedup = (if pool.Pool.wall > 0.0 then pool.Pool.busy /. pool.Pool.wall else 1.0);
    sim_runs = pool.Pool.jobs_run;
    batches = pool.Pool.batches;
    queue_wait = pool.Pool.queue_wait;
    per_domain;
    verdicts_pass;
    verdicts_total;
  }

let add t e = t.entries_rev <- e :: t.entries_rev
let entries t = List.rev t.entries_rev

(* --- JSON ------------------------------------------------------------------ *)

module J = Bgp_engine.Json_lite

let entry_json e =
  J.Obj
    [
      ("id", J.Str e.id);
      ("title", J.Str e.title);
      ("kind", J.Str e.kind);
      ("wall_s", J.of_float e.wall);
      ("cpu_s", J.of_float e.cpu);
      ("speedup", J.of_float e.speedup);
      ("sim_runs", J.of_int e.sim_runs);
      ("batches", J.of_int e.batches);
      ("queue_wait_s", J.of_float e.queue_wait);
      ("verdicts_pass", J.of_int e.verdicts_pass);
      ("verdicts_total", J.of_int e.verdicts_total);
      ( "last_batch_domains",
        J.Arr
          (List.map
             (fun (d : Pool.domain_stat) ->
               J.Obj
                 [
                   ("domain", J.of_int d.Pool.domain);
                   ("jobs", J.of_int d.Pool.jobs);
                   ("busy_s", J.of_float d.Pool.busy);
                   ("wait_s", J.of_float d.Pool.wait);
                 ])
             e.per_domain) );
    ]

let micro_json m =
  J.Obj
    [
      ("name", J.Str m.name);
      ("iters", J.of_int m.iters);
      ("wall_s", J.of_float m.micro_wall);
      ("ns_per_op", J.of_float m.ns_per_op);
      ("ops_per_s", J.of_float m.ops_per_s);
    ]

let attribution_json a =
  J.Obj
    [
      ("scenario", J.Str a.attr_scenario);
      ("convergence_delay_s", J.of_float a.attr_delay);
      ("queueing_s", J.of_float a.attr_queueing);
      ("processing_s", J.of_float a.attr_processing);
      ("mrai_hold_s", J.of_float a.attr_mrai_hold);
      ("propagation_s", J.of_float a.attr_propagation);
      ("critical_hops", J.of_int a.attr_hops);
      ("complete", J.Bool a.attr_complete);
      ("dests", J.of_int a.attr_dests);
      ("tail_p50_s", J.of_float a.attr_tail_p50);
      ("tail_p95_s", J.of_float a.attr_tail_p95);
      ("tail_p99_s", J.of_float a.attr_tail_p99);
      ("straggler_dest", J.of_int a.attr_straggler_dest);
      ("straggler_tail_s", J.of_float a.attr_straggler_tail);
    ]

let profile_json p =
  J.Obj
    [
      ("wall_s", J.of_float p.prof_wall);
      ("queue_wait_s", J.of_float p.prof_queue_wait);
      ( "spans",
        J.Arr
          (List.map
             (fun (label, seconds, count) ->
               J.Obj
                 [
                   ("span", J.Str label);
                   ("total_s", J.of_float seconds);
                   ("count", J.of_int count);
                 ])
             p.prof_spans) );
      ("counters", J.Obj (List.map (fun (name, v) -> (name, J.of_int v)) p.prof_counters));
    ]

let to_json t =
  let optional key f = function None -> [] | Some x -> [ (key, f x) ] in
  J.to_string
    (J.Obj
       ([
          ("schema", J.Str "bgp-bench/1");
          ("trials", J.of_int t.trials);
          ("n", J.of_int t.n);
          ("jobs", J.of_int t.jobs);
          ("figures", J.Arr (List.map entry_json (entries t)));
          ("micro", J.Arr (List.map micro_json (micros t)));
        ]
       @ optional "attribution" attribution_json t.attribution
       @ optional "profile" profile_json t.profile))

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json t);
      output_char oc '\n')
