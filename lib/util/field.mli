(** Arithmetic in the Mersenne prime field [F_p] with [p = 2^31 - 1].

    All elements are native OCaml [int]s in the range [0, p). Products of two
    elements fit in a 63-bit native int ([ (p-1)^2 < 2^62 ]), so no big-number
    support is needed. This field backs every fingerprint and hash polynomial
    in the sketching layer. *)

val p : int
(** The field modulus, [2^31 - 1]. *)

val of_int : int -> int
(** [of_int x] reduces an arbitrary integer (possibly negative) into [0, p). *)

val add : int -> int -> int
(** Field addition. Arguments must already be reduced. *)

val sub : int -> int -> int
(** Field subtraction. Arguments must already be reduced. *)

val neg : int -> int
(** Field negation. *)

val mul : int -> int -> int
(** Field multiplication. Arguments must already be reduced. *)

val pow : int -> int -> int
(** [pow b e] is [b^e mod p] by binary exponentiation. Requires [e >= 0]. *)

val inv : int -> int
(** Multiplicative inverse by Fermat's little theorem.
    @raise Division_by_zero on [inv 0]. *)

val scale_int : int -> int -> int
(** [scale_int c x] multiplies a field element [x] by an arbitrary (possibly
    negative, possibly large) integer coefficient [c], reducing [c] first.
    Used to fold signed stream multiplicities into fingerprints. *)

(** Fixed-base exponentiation by table lookup: for a base known in advance
    and exponents bounded by [max_exp], [get] computes [base^e] with two
    array reads and one multiplication instead of the [O(log e)] squarings
    of {!pow}. The two tables cover the low and high halves of the exponent
    bits, so memory is [O(sqrt max_exp)] words. This is the hot-path kernel
    behind every {!Ds_sketch.One_sparse} fingerprint update; tables are
    immutable after construction and safe to share across domains. *)
module Pow : sig
  type table

  val table : base:int -> max_exp:int -> table
  (** Precompute tables for [base^e], [0 <= e <= max_exp]. *)

  val base : table -> int
  (** The (reduced) base. *)

  val max_exp : table -> int

  val get : table -> int -> int
  (** [get t e] is [base^e mod p]. Requires [0 <= e <= max_exp]; out-of-range
      exponents are undefined behaviour (unchecked — hot path). *)
end
