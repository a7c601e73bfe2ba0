(** Conjugate gradients for Laplacian systems. Solves [L x = b] on the
    subspace orthogonal to the all-ones vector (the solvable subspace of a
    connected graph's Laplacian); this is how effective resistances are
    computed without densifying. Both solvers take the graph as a
    {!Laplacian.op} built once by the caller, and iterate in four vectors
    allocated up front: an iteration is one {!Laplacian.apply_into}, three
    dot products and three O(n) updates, with no allocation. *)

type result = { x : float array; iterations : int; residual : float }

val solve :
  Laplacian.op -> b:float array -> ?tol:float -> ?max_iter:int -> unit -> result
(** [b] is projected off the ones vector first. @raise Invalid_argument when
    [b]'s length differs from the vertex count. The solution is the
    minimum-norm one (mean zero). *)

val solve_shifted :
  Laplacian.op ->
  shift:float ->
  b:float array ->
  ?tol:float ->
  ?max_iter:int ->
  unit ->
  result
(** Solve the regularized system [(L + shift * I) x = b], [shift > 0]. The
    matrix is positive definite for every graph — including disconnected
    and edgeless ones — so no kernel projection is involved; this is the
    solver behind the single-pass sparsifier's chain of regularized
    Laplacians [K(gamma) = L + gamma I] (KLMMS, arXiv 1407.1289).
    [max_iter = 0] (the default) means [20 n]. @raise Invalid_argument on a
    size mismatch or non-positive shift. *)
