(** Distinct-elements (F0) estimation from a linear sketch, the stand-in for
    Theorem 9 [KNW10].

    For each geometric sampling level [j] the sketch keeps a small
    {!Sparse_recovery} instance of the substream restricted to indices with
    hash level [>= j]. The estimate is [count * 2^j] at the first level that
    does not decline ([0] if it decodes [Empty]), medianed over independent
    repetitions. Decode failures are detected (never silently wrong), so
    the estimator is a true constant-factor F0 gate; accuracy tightens as
    [sparsity] grows (relative error roughly [1/sqrt(sparsity)]). The paper
    only needs a factor-2 gate (Section 2). *)

type t

type params = {
  sparsity : int;  (** per-level recovery budget; estimation accuracy knob *)
  reps : int;  (** independent repetitions medianed together *)
  hash_degree : int;
}

val default_params : params
(** [sparsity = 8], [reps = 3], [hash_degree = 6]. *)

val levels_for : int -> int
(** [levels_for dim] is the number of geometric sampling levels needed to
    cover a support of up to [dim] elements ([ceil(log2 dim) + 1]). Shared
    by every levelled sketch in the library. *)

val create : Ds_util.Prng.t -> dim:int -> params:params -> t

val update : t -> index:int -> delta:int -> unit

val estimate : t -> int
(** Estimated number of non-zero coordinates. Exact when the support fits a
    single level-0 sketch (support [<= sparsity]). *)

val add : t -> t -> unit
val space_in_words : t -> int

module Linear : Linear_sketch.S with type t = t
