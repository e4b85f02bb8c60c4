type t = int

let compare = Int.compare
let equal = Int.equal
let priority k = Hyder_util.Rng.hash64 (Int64.of_int k)

(* [Rng.hash64] (the SplitMix64 finalizer) written out on let-bound
   [Int64] locals, which the native compiler keeps unboxed; calling it
   boxes each argument and result, four allocations per comparison on
   the hot path of [Tree.upsert] and meld.  Must stay bit-identical to
   [priority]: tree shapes, and so every digest, depend on it.  The
   unsigned comparison flips the sign bit and compares signed. *)
let priority_greater a b =
  let open Int64 in
  let za = of_int a and zb = of_int b in
  let za = mul (logxor za (shift_right_logical za 30)) 0xBF58476D1CE4E5B9L in
  let zb = mul (logxor zb (shift_right_logical zb 30)) 0xBF58476D1CE4E5B9L in
  let za = mul (logxor za (shift_right_logical za 27)) 0x94D049BB133111EBL in
  let zb = mul (logxor zb (shift_right_logical zb 27)) 0x94D049BB133111EBL in
  let pa = logxor (logxor za (shift_right_logical za 31)) min_int in
  let pb = logxor (logxor zb (shift_right_logical zb 31)) min_int in
  if pa = pb then a < b else pa > pb

let pp fmt k = Format.fprintf fmt "%d" k
let to_string = string_of_int
