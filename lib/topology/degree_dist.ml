module Rng = Bgp_engine.Rng

type spec =
  | Two_class of {
      low_frac : float;
      low_degrees : int array;
      high_degrees : int array;
    }
  | Uniform_range of { lo : int; hi : int }
  | Power_law of { gamma : float; min_degree : int; max_degree : int }

let skewed_70_30 =
  Two_class { low_frac = 0.70; low_degrees = [| 1; 2; 3 |]; high_degrees = [| 8 |] }

let skewed_50_50 =
  Two_class { low_frac = 0.50; low_degrees = [| 1; 2; 3 |]; high_degrees = [| 5; 6 |] }

let skewed_85_15 =
  Two_class { low_frac = 0.85; low_degrees = [| 1; 2; 3 |]; high_degrees = [| 14 |] }

let skewed_50_50_dense =
  Two_class { low_frac = 0.50; low_degrees = [| 1; 2; 3 |]; high_degrees = [| 13; 14 |] }

(* gamma tuned so the capped power law on [1,40] has mean ~3.4, the
   average the paper reports after capping the real AS data at degree 40;
   this puts ~77% of the mass on degrees 1-3 (the paper reports ~70% of
   ASes below degree 4 — a pure power law cannot hit both targets exactly,
   so we prioritise the average degree; see DESIGN.md). *)
let internet_like = Power_law { gamma = 1.78; min_degree = 1; max_degree = 40 }

let array_mean a =
  Array.fold_left (fun acc d -> acc +. float_of_int d) 0.0 a /. float_of_int (Array.length a)

let power_law_weights ~gamma ~min_degree ~max_degree =
  Array.init
    (max_degree - min_degree + 1)
    (fun i ->
      let d = min_degree + i in
      (float_of_int d ** -.gamma, float_of_int d))

let mean_degree = function
  | Two_class { low_frac; low_degrees; high_degrees } ->
    (low_frac *. array_mean low_degrees) +. ((1.0 -. low_frac) *. array_mean high_degrees)
  | Uniform_range { lo; hi } -> float_of_int (lo + hi) /. 2.0
  | Power_law { gamma; min_degree; max_degree } ->
    let weights = power_law_weights ~gamma ~min_degree ~max_degree in
    let total = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 weights in
    Array.fold_left (fun acc (w, d) -> acc +. (w *. d)) 0.0 weights /. total

let sample_one spec rng =
  match spec with
  | Two_class { low_frac; low_degrees; high_degrees } ->
    if Rng.float rng < low_frac then Rng.choose rng low_degrees
    else Rng.choose rng high_degrees
  | Uniform_range { lo; hi } -> lo + Rng.int rng (hi - lo + 1)
  | Power_law { gamma; min_degree; max_degree } ->
    let weights = power_law_weights ~gamma ~min_degree ~max_degree in
    int_of_float (Bgp_engine.Dist.sample (Discrete weights) rng)

(* Erdos-Gallai graphicality test.  With the sequence sorted descending,
   the k-th inequality's tail sum [sum_{i>k} min(d_i, k)] splits at the
   crossover index where degrees drop below [k]: everything before it
   contributes [k], everything after contributes its own degree, read off
   a prefix-sum table.  A binary search per [k] gives O(n log n) overall
   instead of the naive O(n^2) inner loop. *)
let is_graphical degrees =
  let d = Array.copy degrees in
  Array.sort (fun a b -> Int.compare b a) d;
  let n = Array.length d in
  let prefix = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) + d.(i)
  done;
  if prefix.(n) mod 2 = 1 then false
  else begin
    (* First index with [d.(i) < k]; [d] is non-increasing. *)
    let crossover k =
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if d.(mid) >= k then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let ok = ref true in
    for k = 1 to n do
      let m = Stdlib.max k (crossover k) in
      let rest = (k * (m - k)) + (prefix.(n) - prefix.(m)) in
      if prefix.(k) > (k * (k - 1)) + rest then ok := false
    done;
    !ok
  end

(* Repair a non-graphical sequence by shaving the two largest degrees.
   Keeps the sum even and every degree >= 1; mostly needed for small [n]
   where clamped hub degrees violate Erdos-Gallai. *)
let rec make_graphical degrees =
  if is_graphical degrees then degrees
  else begin
    let order = Array.init (Array.length degrees) (fun i -> i) in
    Array.sort (fun a b -> Int.compare degrees.(b) degrees.(a)) order;
    if Array.length order < 2 || degrees.(order.(1)) <= 1 then
      invalid_arg "Degree_dist.sample_sequence: cannot repair degree sequence";
    degrees.(order.(0)) <- degrees.(order.(0)) - 1;
    degrees.(order.(1)) <- degrees.(order.(1)) - 1;
    make_graphical degrees
  end

let sample_sequence spec rng ~n =
  if n < 2 then invalid_arg "Degree_dist.sample_sequence: need at least 2 nodes";
  let degrees =
    match spec with
    | Two_class { low_frac; low_degrees; high_degrees } ->
      (* Exact class sizes (the paper's "70% of the nodes"), not Bernoulli
         draws, so every sampled topology honours the stated split. *)
      let n_low = int_of_float (Float.round (low_frac *. float_of_int n)) in
      let degrees =
        Array.init n (fun i ->
            if i < n_low then Rng.choose rng low_degrees else Rng.choose rng high_degrees)
      in
      Rng.shuffle rng degrees;
      degrees
    | Uniform_range _ | Power_law _ -> Array.init n (fun _ -> sample_one spec rng)
  in
  let degrees = Array.map (fun d -> Stdlib.max 1 (Stdlib.min (n - 1) d)) degrees in
  let sum = Array.fold_left ( + ) 0 degrees in
  if sum mod 2 = 1 then begin
    (* Force an even stub count by bumping one random node that has room. *)
    let rec bump () =
      let v = Rng.int rng n in
      if degrees.(v) < n - 1 then degrees.(v) <- degrees.(v) + 1 else bump ()
    in
    bump ()
  end;
  let degrees = make_graphical degrees in
  (* A connected graph needs n - 1 edges.  A draw heavy in leaves can fall
     short (small n under the power law); raise that many leaves to degree
     2.  The deficit is even and below the leaf count, and a positive
     sequence summing to exactly 2(n - 1) is a tree's, so the result is
     still graphical. *)
  let deficit = ref ((2 * (n - 1)) - Array.fold_left ( + ) 0 degrees) in
  Array.iteri
    (fun v d ->
      if !deficit > 0 && d = 1 then begin
        degrees.(v) <- 2;
        decr deficit
      end)
    degrees;
  degrees

(* --- Realization: Havel-Hakimi + edge swaps --------------------------- *)

let edge_key u v = if u < v then (u, v) else (v, u)

module Edge_set = struct
  type t = (int * int, unit) Hashtbl.t

  let create () : t = Hashtbl.create 512
  let mem t u v = Hashtbl.mem t (edge_key u v)
  let add t u v = Hashtbl.replace t (edge_key u v) ()
  let remove t u v = Hashtbl.remove t (edge_key u v)
end

let havel_hakimi degrees =
  let n = Array.length degrees in
  let remaining = Array.copy degrees in
  let edges = ref [] in
  let edge_set = Edge_set.create () in
  let nodes = Array.init n (fun i -> i) in
  let unsatisfied () = Array.exists (fun d -> d > 0) remaining in
  while unsatisfied () do
    (* Sort by remaining degree, descending; stable enough for our sizes. *)
    Array.sort (fun a b -> Int.compare remaining.(b) remaining.(a)) nodes;
    let u = nodes.(0) in
    let need = remaining.(u) in
    remaining.(u) <- 0;
    let attached = ref 0 in
    let i = ref 1 in
    while !attached < need && !i < n do
      let v = nodes.(!i) in
      if remaining.(v) > 0 && not (Edge_set.mem edge_set u v) then begin
        remaining.(v) <- remaining.(v) - 1;
        Edge_set.add edge_set u v;
        edges := edge_key u v :: !edges;
        incr attached
      end;
      incr i
    done;
    if !attached < need then
      invalid_arg "Degree_dist.realize: degree sequence is not graphical"
  done;
  (Array.of_list !edges, edge_set)

let randomize_edges rng edges edge_set =
  let m = Array.length edges in
  if m >= 2 then
    for _ = 1 to 10 * m do
      let i = Rng.int rng m and j = Rng.int rng m in
      if i <> j then begin
        let a, b = edges.(i) in
        let c, d = edges.(j) in
        (* Randomly pick one of the two rewirings. *)
        let a, b = if Rng.bool rng then (a, b) else (b, a) in
        let ok =
          a <> c && a <> d && b <> c && b <> d
          && (not (Edge_set.mem edge_set a c))
          && not (Edge_set.mem edge_set b d)
        in
        if ok then begin
          Edge_set.remove edge_set a b;
          Edge_set.remove edge_set c d;
          Edge_set.add edge_set a c;
          Edge_set.add edge_set b d;
          edges.(i) <- edge_key a c;
          edges.(j) <- edge_key b d
        end
      end
    done

let graph_of_edges n edges =
  let g = Graph.create n in
  Array.iter (fun (u, v) -> Graph.add_edge g u v) edges;
  g

(* Find an edge that lies on a cycle (a non-bridge): DFS with parent
   tracking; the first back edge found is returned.  When the graph is
   disconnected and has at least [n - 1] edges, some component must
   contain a cycle (all-trees would mean at most [n - #components]
   edges). *)
let cycle_edge g =
  let n = Graph.num_nodes g in
  let visited = Array.make n false in
  let parent = Array.make n (-1) in
  let found = ref None in
  let rec dfs u =
    visited.(u) <- true;
    List.iter
      (fun v ->
        if !found = None then
          if not visited.(v) then begin
            parent.(v) <- u;
            dfs v
          end
          else if v <> parent.(u) then found := Some (edge_key u v))
      (Graph.neighbors g u)
  in
  let root = ref 0 in
  while !found = None && !root < n do
    if not visited.(!root) then dfs !root;
    incr root
  done;
  !found

(* Merge components without changing any degree.  Take an edge (a, b)
   that lies on a cycle of its component X (so removing it keeps X
   connected) and any edge (c, d) of a different component Y; rewiring to
   (a, c) and (b, d) attaches both halves of Y to X.  The component count
   strictly decreases, so this terminates. *)
let connect_components rng n edges edge_set =
  let rec loop () =
    let g = graph_of_edges n edges in
    if not (Graph.is_connected g) then begin
      let a, b =
        match cycle_edge g with
        | Some e -> e
        | None ->
          invalid_arg
            "Degree_dist.realize: disconnected graph with no cycle (too few edges)"
      in
      let comp_of =
        let dist = Graph.bfs_dist g ~src:a in
        fun v -> dist.(v) < max_int
      in
      let foreign =
        Array.of_list (List.filter (fun (u, v) -> not (comp_of u || comp_of v))
                         (Array.to_list edges))
      in
      if Array.length foreign = 0 then
        invalid_arg "Degree_dist.realize: foreign component without edges";
      let c, d = Rng.choose rng foreign in
      let index_of e =
        let rec find i = if edges.(i) = e then i else find (i + 1) in
        find 0
      in
      let i = index_of (edge_key a b) and j = index_of (edge_key c d) in
      Edge_set.remove edge_set a b;
      Edge_set.remove edge_set c d;
      Edge_set.add edge_set a c;
      Edge_set.add edge_set b d;
      edges.(i) <- edge_key a c;
      edges.(j) <- edge_key b d;
      loop ()
    end
  in
  loop ()

let realize rng degrees =
  let n = Array.length degrees in
  let sum = Array.fold_left ( + ) 0 degrees in
  if sum mod 2 = 1 then invalid_arg "Degree_dist.realize: odd degree sum";
  if sum < 2 * (n - 1) then
    invalid_arg "Degree_dist.realize: too few edges for a connected graph";
  if Array.exists (fun d -> d < 1 || d > n - 1) degrees then
    invalid_arg "Degree_dist.realize: degree outside [1, n-1]";
  let edges, edge_set = havel_hakimi degrees in
  randomize_edges rng edges edge_set;
  connect_components rng n edges edge_set;
  graph_of_edges n edges

let generate spec rng ~n = realize rng (sample_sequence spec rng ~n)
