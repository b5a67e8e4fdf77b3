(* Convergence anatomy: dissect one failure event with the trace subsystem.

   Runs a 30-node network with a 10% regional failure and an attached
   event trace, then reads the story out of the trace: when the sessions
   dropped, how the update storm ramped and decayed per second, and which
   routers carried the load (the paper's Section 4.1 point: the
   high-degree nodes receive the most messages and get overloaded first).

   Run with:  dune exec examples/convergence_anatomy.exe *)

module Rng = Bgp_engine.Rng
module Graph = Bgp_topology.Graph
module Topology = Bgp_topology.Topology
module Degree_dist = Bgp_topology.Degree_dist
module Failure = Bgp_topology.Failure
module Config = Bgp_proto.Config
module Network = Bgp_netsim.Network
module Trace = Bgp_netsim.Trace

let () =
  let rng = Rng.create 11 in
  let topo = Topology.flat rng ~spec:Degree_dist.skewed_70_30 ~n:30 in
  let trace = Trace.create () in
  let config =
    {
      (Network.config_default Config.(with_mrai (Static 0.5) default)) with
      Network.trace = Some trace;
    }
  in
  let net = Network.build ~rng:(Rng.create 12) ~config topo in
  Network.start_all net;
  Network.run net ~cap:infinity;
  Trace.clear trace;
  let t_fail = Network.now net in
  let failure = Failure.contiguous topo ~fraction:0.10 in
  Network.inject_failure net ~at:t_fail failure;
  Network.run net ~cap:infinity;
  let t_end = Network.now net in
  Fmt.pr "failure at t=%.1f s: %d routers died; re-converged by t=%.1f s@.@." t_fail
    failure.Failure.count t_end;
  (* Session drops. *)
  let drops =
    List.filter_map
      (function
        | Trace.Session_down { time; router; peer; _ } -> Some (time, router, peer)
        | _ -> None)
      (Trace.to_list trace)
  in
  Fmt.pr "%d surviving routers observed a session drop:@." (List.length drops);
  List.iteri
    (fun i (time, router, peer) ->
      if i < 5 then Fmt.pr "  t=%.3f: router %d lost its session to %d@." time router peer)
    drops;
  if List.length drops > 5 then Fmt.pr "  ...@.";
  (* The update storm, second by second. *)
  Fmt.pr "@.update storm (messages sent per second after the failure):@.";
  let seconds = int_of_float (Float.ceil (t_end -. t_fail)) in
  for s = 0 to Stdlib.min 14 (seconds - 1) do
    let lo = t_fail +. float_of_int s and hi = t_fail +. float_of_int (s + 1) in
    let sent =
      List.length
        (List.filter
           (function Trace.Update_sent _ -> true | _ -> false)
           (Trace.between trace ~lo ~hi))
    in
    Fmt.pr "  t+%2d s: %5d %s@." s sent (String.make (Stdlib.min 60 (sent / 20)) '#')
  done;
  (* Who carried the load. *)
  Fmt.pr "@.busiest senders vs their degree:@.";
  List.iteri
    (fun i (router, count) ->
      if i < 8 then
        Fmt.pr "  router %3d (degree %2d): %5d updates@." router
          (Graph.degree topo.Topology.graph router)
          count)
    (Trace.sends_by_router trace);
  Fmt.pr
    "@.The highest-degree routers dominate the storm -- the observation behind@.\
     the paper's degree-dependent MRAI (Section 4.2).@.";
  (* Per-destination anatomy: which prefixes dragged the tail, and why. *)
  let module Attribution = Bgp_netsim.Attribution in
  let attr = Attribution.analyze ~t_fail (Trace.events trace) in
  Fmt.pr
    "@.%d destinations re-converged (tail p50 %.2f s, p95 %.2f s); the 5 slowest:@."
    attr.Attribution.tails.Attribution.n_dests attr.Attribution.tails.Attribution.p50
    attr.Attribution.tails.Attribution.p95;
  List.iteri
    (fun i (d : Attribution.dest_attr) ->
      if i < 5 then
        Fmt.pr "  dest %3d: %5.2f s tail over %3d hops, mostly %s@." d.Attribution.dest
          d.Attribution.tail
          (List.length d.Attribution.dest_path)
          (Attribution.dominant d.Attribution.dest_parts))
    attr.Attribution.per_dest;
  (* Collapsed stacks for a flamegraph of where the network's time went:
     render with inferno-flamegraph or drag into speedscope.app. *)
  let folded = "convergence_anatomy.folded" in
  let oc = open_out folded in
  output_string oc (Attribution.to_flamegraph ~mode:Attribution.Flame_aggregate attr);
  close_out oc;
  Fmt.pr "@.wrote %s (collapsed stacks; feed to inferno or speedscope)@." folded
