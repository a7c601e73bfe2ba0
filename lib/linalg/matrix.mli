(** Dense square matrices (row-major float arrays) — enough numerical linear
    algebra for the exact verification side of the sparsifier experiments.
    Everything here is O(n^2) space and O(n^3) time: verification only. *)

type t

val create : int -> t
(** Zero matrix of the given order. *)

val of_rows : float array array -> t
val dim : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val add_to : t -> int -> int -> float -> unit
val identity : int -> t
val copy : t -> t
val transpose : t -> t
val mul : t -> t -> t
val mul_vec : t -> float array -> float array
val scale : float -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val frobenius : t -> float
val max_abs_off_diagonal : t -> float
val is_symmetric : ?tol:float -> t -> bool
