(** k-wise independent hash families over [F_p], [p = 2^31 - 1].

    The paper assumes [O(log n)]-wise independent hash functions to generate
    the edge samples [E_j], vertex samples [C_r], [Y_j], [Z_r], and the rows
    of the sparse-recovery sketches (Theorem 8). A degree-[k] random
    polynomial over a prime field is the textbook such family; the degree is
    a parameter so experiments can dial independence. *)

type t
(** An immutable hash function drawn from the family. *)

val create : Prng.t -> k:int -> t
(** [create rng ~k] draws a uniformly random polynomial of degree [k - 1],
    i.e. a [k]-wise independent function [F_p -> F_p]. Requires [k >= 1]. *)

val eval : t -> int -> int
(** [eval h x] evaluates the polynomial at [Field.of_int x]; the result is a
    field element in [0, p). Keys larger than [p] are folded into the field
    with a mixing step so that distinct 62-bit keys rarely collide. *)

val fold_key : int -> int
(** The key-folding step of {!eval} exposed separately: callers that hash
    one key through several functions (rows of a recovery sketch, sampling
    levels) fold once and use the [_folded] variants below. Pure function of
    the key; [eval h x = eval_folded h (fold_key x)]. *)

val eval_folded : t -> int -> int
(** {!eval} on a pre-folded key (a field element in [0, p)). *)

val to_range : t -> int -> bound:int -> int
(** [to_range h x ~bound] maps [x] to [0, bound). Unlike a plain
    [eval mod bound] (bias up to [bound / p] per bucket, material when
    [bound] approaches [p]), values landing in the un-divisible tail of
    [[0, p)] are deterministically re-hashed, leaving residual bias below
    [(bound/p)^9] — negligible at every bound. Requires [0 < bound]. *)

val to_range_folded : t -> int -> bound:int -> int
(** {!to_range} on a pre-folded key. *)

val to_range_pows : t -> x:int -> x2:int -> x4:int -> bound:int -> int
(** {!to_range_folded} with the folded key's square and fourth power supplied
    by the caller ([x2 = x*x], [x4 = x2*x2] in [F_p]). The powers depend only
    on the key, so a container evaluating many hashes at one key computes
    them once. Same value as {!to_range_folded}. *)

val to_unit : t -> int -> float
(** [to_unit h x] maps [x] to a quasi-uniform float in [0, 1). This is the
    discretised uniform [h^j_uv] used in Section 6.3. *)

val level : t -> int -> int
(** [level h x] is a geometric level: the largest [j >= 0] such that
    [to_unit h x < 2^-j], capped at 62. [level h x >= j] has probability
    [2^-j]; used for the nested sampling sets [E_j], [Y_j], [Z_r]. *)

val level_folded : t -> int -> int
(** {!level} on a pre-folded key. *)

val level_pows : t -> x:int -> x2:int -> x4:int -> int
(** {!level_folded} with precomputed key powers, as in {!to_range_pows}. *)

val space_in_words : t -> int
(** Number of machine words of state (the coefficient vector). *)
