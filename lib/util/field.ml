let p = 0x7fffffff (* 2^31 - 1 *)

let[@inline] of_int x =
  (* Branches cover the common callers (already-reduced values, small signed
     deltas) without a hardware division. *)
  if x >= 0 then if x < p then x else x mod p
  else if x > -p then x + p
  else
    let r = x mod p in
    if r < 0 then r + p else r

let[@inline] add a b =
  let s = a + b in
  if s >= p then s - p else s

let[@inline] sub a b = let d = a - b in if d < 0 then d + p else d
let[@inline] neg a = if a = 0 then 0 else p - a

(* (p-1)^2 = (2^31-2)^2 < 2^62 - 1 = max_int, so the product never wraps.
   Reduction exploits the Mersenne shape: 2^31 = 1 (mod p), so a 62-bit
   product folds as high + low in two rounds of shift/mask/add — no
   hardware division on the hottest instruction in the library. After the
   second fold the value is at most p, so one conditional subtract
   completes the reduction. *)
let[@inline] mul a b =
  let x = a * b in
  let r = (x lsr 31) + (x land p) in
  let r = (r lsr 31) + (r land p) in
  if r >= p then r - p else r

let pow b e =
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul acc b) (mul b b) (e lsr 1)
    else go acc (mul b b) (e lsr 1)
  in
  if e < 0 then invalid_arg "Field.pow: negative exponent";
  go 1 (of_int b) e

let inv a = if a = 0 then raise Division_by_zero else pow a (p - 2)
let[@inline] scale_int c x = mul (of_int c) x

module Pow = struct
  type table = {
    base : int;
    max_exp : int;
    shift : int; (* split point: e = hi * 2^shift + lo *)
    lo : int array; (* lo.(i) = base^i,          i in [0, 2^shift) *)
    hi : int array; (* hi.(j) = base^(j*2^shift), j in [0, max_exp >> shift] *)
  }

  let table ~base ~max_exp =
    if max_exp < 0 then invalid_arg "Field.Pow.table: negative max_exp";
    let base = of_int base in
    let bits =
      let rec go b = if 1 lsl b > max_exp then b else go (b + 1) in
      go 1
    in
    let shift = (bits + 1) / 2 in
    let lo = Array.make (1 lsl shift) 1 in
    for i = 1 to Array.length lo - 1 do
      lo.(i) <- mul lo.(i - 1) base
    done;
    let step = mul lo.(Array.length lo - 1) base (* base^(2^shift) *) in
    let hi = Array.make ((max_exp lsr shift) + 1) 1 in
    for j = 1 to Array.length hi - 1 do
      hi.(j) <- mul hi.(j - 1) step
    done;
    { base; max_exp; shift; lo; hi }

  let base t = t.base
  let max_exp t = t.max_exp

  let[@inline] get t e =
    mul
      (Array.unsafe_get t.lo (e land ((1 lsl t.shift) - 1)))
      (Array.unsafe_get t.hi (e lsr t.shift))
end
