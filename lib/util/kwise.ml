type t = { coeffs : int array }

let create rng ~k =
  if k < 1 then invalid_arg "Kwise.create: k must be >= 1";
  let coeffs = Array.init k (fun _ -> Prng.int rng Field.p) in
  (* Avoid the identically-zero function for degenerate uses. *)
  if Array.for_all (fun c -> c = 0) coeffs then coeffs.(0) <- 1;
  { coeffs }

(* Keys can exceed p (edge indices go up to n^2); fold the high bits in with
   a multiplier so that keys congruent mod p still hash differently. *)
let[@inline] fold_key x =
  let lo = x land 0x7fffffff
  and hi = (x lsr 31) land 0x7fffffff in
  Field.add (Field.of_int lo) (Field.mul (Field.of_int hi) 0x5DEECE66)

(* Evaluation with the key's square and fourth power precomputed: x^2 and
   x^4 depend only on the key, and the sketch containers evaluate many
   degree-6 hashes at one key, so the caller computes them once. *)
let[@inline] eval_folded_pows t ~x ~x2 ~x4 =
  let coeffs = t.coeffs in
  if Array.length coeffs = 6 then
    (* The default degree gets an Estrin-split path: Horner's chain is one
       long serial dependency (each step waits on the previous reduction),
       while the split evaluates sub-terms in parallel on an out-of-order
       core. Field ops are exact mod p, so the re-association computes the
       identical value. *)
    let a = Field.add (Array.unsafe_get coeffs 0) (Field.mul (Array.unsafe_get coeffs 1) x) in
    let b = Field.add (Array.unsafe_get coeffs 2) (Field.mul (Array.unsafe_get coeffs 3) x) in
    let c = Field.add (Array.unsafe_get coeffs 4) (Field.mul (Array.unsafe_get coeffs 5) x) in
    Field.add a (Field.add (Field.mul b x2) (Field.mul c x4))
  else begin
    let acc = ref 0 in
    for i = Array.length coeffs - 1 downto 0 do
      acc := Field.add (Field.mul !acc x) (Array.unsafe_get coeffs i)
    done;
    !acc
  end

let[@inline] eval_folded t x =
  let x2 = Field.mul x x in
  let x4 = Field.mul x2 x2 in
  eval_folded_pows t ~x ~x2 ~x4

let eval t x = eval_folded t (fold_key x)

(* Map a hash value to [0, bound) without the modulo bias of a plain
   [eval mod bound]: values falling in the short tail [lim, p) (where
   [lim = p - p mod bound] is the largest multiple of [bound] below [p])
   are deterministically re-hashed through the same polynomial until they
   land in the evenly-divisible region. The chain is a fixed function of
   the key, so the map stays consistent across calls; after [8] rounds the
   residual bias is at most [(bound/p)^9], and for the small bounds used by
   bucket hashes the tail is essentially never hit (one extra compare). *)
let[@inline] to_range_of_value t v ~bound =
  if bound <= 0 then invalid_arg "Kwise.to_range: bound must be positive";
  if bound land (bound - 1) = 0 && bound < Field.p then begin
    (* Power-of-two bound — every bucket hash in the recovery tree. p is all
       ones in binary, so [p mod bound = bound - 1]: the limit is
       [p - bound + 1] and [v mod bound] is a mask. Same values as the
       general path below, no hardware division on the hot path. *)
    let lim = Field.p - bound + 1 and mask = bound - 1 in
    if v < lim then v land mask
    else
      let rec go v tries =
        if v < lim || tries = 0 then v land mask else go (eval_folded t v) (tries - 1)
      in
      go (eval_folded t v) 7
  end
  else if bound >= Field.p then v
  else
    let lim = Field.p - (Field.p mod bound) in
    if v < lim then v mod bound
    else
      let rec go v tries =
        if v < lim || tries = 0 then v mod bound else go (eval_folded t v) (tries - 1)
      in
      go (eval_folded t v) 7

let to_range_folded t x ~bound = to_range_of_value t (eval_folded t x) ~bound

let[@inline] to_range_pows t ~x ~x2 ~x4 ~bound =
  to_range_of_value t (eval_folded_pows t ~x ~x2 ~x4) ~bound

let to_range t x ~bound = to_range_folded t (fold_key x) ~bound
let to_unit t x = float_of_int (eval t x) /. float_of_int Field.p

let[@inline] level_of_value v =
  if v = 0 then 31
  else begin
    (* v uniform in [1, p); level j iff v < p / 2^j. *)
    let rec go j threshold =
      if j >= 31 then 31
      else if v < threshold then go (j + 1) (threshold / 2)
      else j
    in
    go 0 Field.p - 1 |> max 0
  end

let level_folded t x = level_of_value (eval_folded t x)
let[@inline] level_pows t ~x ~x2 ~x4 = level_of_value (eval_folded_pows t ~x ~x2 ~x4)
let level t x = level_folded t (fold_key x)
let space_in_words t = Array.length t.coeffs
