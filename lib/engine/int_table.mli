(** Hash tables keyed by [int].

    The stdlib's generic [Hashtbl] hashes and compares keys polymorphically
    (a C call and a structural compare per probe).  This instance compares
    with [Int.equal] and hashes with a multiply/xor-shift mix, so keys
    that differ only in their high bits — packed pairs such as
    [(a lsl 22) lor b] — still spread over the buckets instead of sharing
    the bucket their low bits pick.  Iteration order is unspecified, as
    for [Hashtbl]. *)

include Hashtbl.S with type key = int
