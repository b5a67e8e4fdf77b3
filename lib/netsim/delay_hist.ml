(* Geometric layout constants.  Changing any of these is a schema change
   for every serialized histogram, so they are deliberately not
   configurable. *)
let lo = 1e-6
let per_decade = 64
let decades = 10
let n_log = per_decade * decades
let n_buckets = n_log + 2 (* underflow + log buckets + overflow *)
let hi = lo *. (10.0 ** float_of_int decades)

type t = { mutable n : int; counts : int array }

let create () = { n = 0; counts = Array.make n_buckets 0 }

let bucket_of v =
  if v <= lo then 0
  else if v > hi then n_buckets - 1
  else
    let i =
      int_of_float (Float.ceil (float_of_int per_decade *. Float.log10 (v /. lo)))
    in
    Stdlib.max 1 (Stdlib.min n_log i)

let add t v =
  t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
  t.n <- t.n + 1

let count t = t.n
let counts t = Array.copy t.counts

let merge_into ~into t =
  for i = 0 to n_buckets - 1 do
    into.counts.(i) <- into.counts.(i) + t.counts.(i)
  done;
  into.n <- into.n + t.n

(* Geometric midpoint of log bucket [i]: lo * 10^((i - 0.5) / per_decade). *)
let midpoint i = lo *. (10.0 ** ((float_of_int i -. 0.5) /. float_of_int per_decade))

let percentile t q =
  if t.n = 0 then 0.0
  else begin
    let rank =
      Stdlib.max 1
        (Stdlib.min t.n (int_of_float (Float.ceil (q *. float_of_int t.n))))
    in
    let bucket = ref 0 in
    let seen = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         seen := !seen + t.counts.(i);
         if !seen >= rank then begin
           bucket := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !bucket = 0 then 0.0
    else if !bucket = n_buckets - 1 then hi
    else midpoint !bucket
  end

let to_json t =
  let module J = Json_lite in
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.counts.(i) > 0 then
      buckets := J.Arr [ J.of_int i; J.of_int t.counts.(i) ] :: !buckets
  done;
  J.Obj [ ("n", J.of_int t.n); ("buckets", J.Arr !buckets) ]

let of_json json =
  let module J = Json_lite in
  let o = J.obj json in
  let t = create () in
  t.n <- J.int (J.field o "n");
  List.iter
    (fun pair ->
      match J.arr pair with
      | [ i; c ] ->
        let i = J.int i in
        if i < 0 || i >= n_buckets then raise (J.Bad "bucket index out of range");
        t.counts.(i) <- J.int c
      | _ -> raise (J.Bad "expected a [bucket, count] pair"))
    (J.arr (J.field o "buckets"));
  t
