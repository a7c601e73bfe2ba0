(** Cyclic Jacobi eigendecomposition of dense symmetric matrices — the exact
    eigensolver behind the sparsifier-quality evaluation. O(n^3) per sweep;
    fine at verification scale (n <= a few hundred). *)

type eig = { values : float array; vectors : Matrix.t }
(** [values] ascending; column [j] of [vectors] is the eigenvector of
    [values.(j)]. *)

val decompose : Matrix.t -> eig
(** Sweeps until the off-diagonal mass is below 1e-12 relative to the
    Frobenius norm, or 100 sweeps.
    @raise Invalid_argument if the matrix is not symmetric. *)

val eigenvalues : Matrix.t -> float array
(** Just the (ascending) spectrum. *)
