(** Effective resistances (Section 2): the potential difference across
    [{u, v}] when a unit current is injected at [u] and extracted at [v],
    with every edge [e] a conductor of conductance [w_e]. Computed by
    conjugate gradients, [R_uv = (e_u - e_v)^T L^+ (e_u - e_v)]. These are
    the sampling probabilities of the [SS08] baseline (Theorem 7) and the
    quantity the KP12 robust connectivities approximate. *)

val effective : Ds_graph.Weighted_graph.t -> int -> int -> float
(** @raise Invalid_argument on a self-pair. Returns [infinity] when [u] and
    [v] are in different components. *)

val all_edges : Ds_graph.Weighted_graph.t -> (int * int * float * float) list
(** [(u, v, w_e, R_e)] for every edge. One CG solve per edge. *)

val total : Ds_graph.Weighted_graph.t -> float
(** [sum_e w_e R_e]; equals [n - #components] exactly (Foster's theorem) —
    used as a self-check in tests. *)

val jl_estimator :
  Ds_util.Prng.t ->
  Ds_graph.Weighted_graph.t ->
  shift:float ->
  reps:int ->
  ?tol:float ->
  unit ->
  int -> int -> float
(** [jl_estimator rng g ~shift ~reps ()] returns a function estimating the
    effective resistance of any vertex pair w.r.t. the {e regularized}
    Laplacian [K = L_g + shift * I] (Spielman–Srivastava JL sketching:
    project the factorization [K = M^T M] onto [reps] Gaussian directions,
    one {!Cg.solve_shifted} per direction up front, O(reps) per queried
    pair). One {!Laplacian.op} built per call serves all [reps] solves, and
    each probe draws its edge Gaussians in that operator's edge order, then
    its [n] vertex Gaussians. Relative error concentrates like
    [1/sqrt reps]. Works on disconnected [g] — the shift keeps [K] positive
    definite — which is what the single-pass sparsifier chain needs when its
    early sparsifiers are still fragments. @raise Invalid_argument on [reps < 1]; {!Cg.solve_shifted}
    raises on [shift <= 0]. *)
