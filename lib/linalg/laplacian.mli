(** Graph Laplacians (Section 2): [L(i,j) = -w(i,j)], [L(i,i) = sum_j w_ij].
    Provides both a dense materialisation (verification) and matrix-free
    application/quadratic forms (cheap enough for CG). *)

val dense : Ds_graph.Weighted_graph.t -> Matrix.t

type op = private {
  n : int;  (** vertex count *)
  src : int array;
  dst : int array;
  w : float array;
}
(** [L] of a fixed graph as flat edge arrays: edge [i] joins [src.(i)] and
    [dst.(i)] with weight [w.(i)], in {!Ds_graph.Weighted_graph.iter_edges}
    order. Built once in O(n + m); every product then walks three arrays
    instead of the graph's hash tables. A snapshot: later edits to the graph
    do not reach it. *)

val operator : Ds_graph.Weighted_graph.t -> op

val apply_into : op -> float array -> float array -> unit
(** [apply_into op x y] overwrites [y] with [L x] in O(n + m), accumulating
    [y.(src)] then [y.(dst)] edge by edge in the operator's order. This is
    the one Laplacian product in the library ({!apply}, {!Cg}). [x] and [y] must be distinct arrays.
    @raise Invalid_argument unless both have length [n]. *)

val apply : Ds_graph.Weighted_graph.t -> float array -> float array
(** [apply g x] is [L x] in a fresh array. [apply g] builds the operator
    once, so a partial application serves many vectors.
    @raise Invalid_argument on a size mismatch. *)

val quadratic_form : Ds_graph.Weighted_graph.t -> float array -> float
(** [x^T L x = sum_e w_e (x_u - x_v)^2], computed edge-wise (exact,
    numerically stable, O(m)). *)

val cut_weight : Ds_graph.Weighted_graph.t -> int list -> float
(** Total weight crossing the cut [(S, V \ S)]; equals the quadratic form of
    the indicator vector of [S]. *)
