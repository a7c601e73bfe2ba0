(** Exact spectral-approximation quality of a candidate sparsifier: the
    extreme generalized eigenvalues of the pencil [(L_H, L_G)] restricted to
    the range of [L_G]. [H] is an [eps]-spectral sparsifier of [G]
    (Definition 6 / Theorem 7) iff both bounds land in [[1-eps, 1+eps]].

    Verification-only: O(n^3) dense eigendecompositions. *)

type bounds = {
  lambda_min : float;  (** min of [x^T L_H x / x^T L_G x] over the range of [L_G] *)
  lambda_max : float;
  kernel_leak : float;  (** energy of [L_H] inside the kernel of [L_G]; must be ~0 *)
}

val pencil_bounds : base:Ds_graph.Weighted_graph.t -> candidate:Ds_graph.Weighted_graph.t -> bounds

val is_sparsifier :
  base:Ds_graph.Weighted_graph.t -> candidate:Ds_graph.Weighted_graph.t -> eps:float -> bool
