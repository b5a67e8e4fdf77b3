type buffer = { mutable data : float array; mutable len : int }

type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
  samples : buffer option;
}

let buffer_add b x =
  if b.len = Array.length b.data then begin
    let data = Array.make (Stdlib.max 16 (2 * b.len)) 0.0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let create ?(keep_samples = true) () =
  {
    n = 0;
    mean = 0.0;
    m2 = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
    samples = (if keep_samples then Some { data = [||]; len = 0 } else None);
  }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x;
  match t.samples with None -> () | Some b -> buffer_add b x

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.mean
let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min t = t.min_v
let max t = t.max_v

let percentile t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p outside [0,1]";
  match t.samples with
  | None -> invalid_arg "Stats.percentile: samples were not kept"
  | Some b ->
    if b.len = 0 then invalid_arg "Stats.percentile: empty";
    let a = Array.sub b.data 0 b.len in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let summarize (t : t) =
  { n = t.n; mean = mean t; stddev = stddev t; min = t.min_v; max = t.max_v }

let pp_summary ppf s =
  Fmt.pf ppf "n=%d mean=%.4g sd=%.3g min=%.4g max=%.4g" s.n s.mean s.stddev s.min s.max
