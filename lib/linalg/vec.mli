(** Dense float vectors. *)

val dot : float array -> float array -> float
val norm : float array -> float
val scale : float -> float array -> float array
val axpy : float -> float array -> float array -> unit
(** [axpy a x y] sets [y := y + a * x] in place. *)

val add : float array -> float array -> float array
val sub : float array -> float array -> float array

val project_off_ones : float array -> unit
(** Subtract the mean in place: afterwards the vector is orthogonal to the
    all-ones vector (the kernel of a connected graph's Laplacian). *)

val random_unit : Ds_util.Prng.t -> int -> float array
(** Uniform random unit vector (Gaussian normalised). *)

val e : int -> int -> float array
(** [e n i] is the [i]-th standard basis vector of length [n]. *)
