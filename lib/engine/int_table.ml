(* xor-shift, multiply by an odd constant, xor-shift: the first shift folds
   high key bits into the low half before the multiply carries them
   upwards, the last one brings the mixed high bits down to where the
   bucket index is taken. *)
let hash k =
  let h = k lxor (k lsr 31) in
  let h = h * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 32)) land max_int

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash
end)
