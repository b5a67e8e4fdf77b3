(* The bgp-bench/1 document the stand-alone benches archive: run-wide
   settings plus one row per timed loop, so CI reads every bench the same
   way ({"schema", "trials", "n", "jobs", "micro": [...]}). *)

module J = Bgp_engine.Json_lite

type row = { name : string; iters : int; wall : float }

let ns_per_op r = if r.iters > 0 then r.wall /. float_of_int r.iters *. 1e9 else 0.0
let ops_per_s r = if r.wall > 0.0 then float_of_int r.iters /. r.wall else 0.0

let write path ~trials ~n ~jobs rows =
  let micro r =
    J.Obj
      [
        ("name", J.Str r.name);
        ("iters", J.of_int r.iters);
        ("wall_s", J.of_float r.wall);
        ("ns_per_op", J.of_float (ns_per_op r));
        ("ops_per_s", J.of_float (ops_per_s r));
      ]
  in
  let doc =
    J.Obj
      [
        ("schema", J.Str "bgp-bench/1");
        ("trials", J.of_int trials);
        ("n", J.of_int n);
        ("jobs", J.of_int jobs);
        ("micro", J.Arr (List.map micro rows));
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string doc);
      output_char oc '\n')
