(** The Alon–Matias–Szegedy F2 (second frequency moment) sketch — the
    original randomized linear measurement, included as a substrate both for
    completeness of the sketching toolkit and because [||x||_2^2] of the
    edge-multiplicity vector (= sum of squared multiplicities) is the
    natural multigraph health metric for streams with churn.

    Each estimator is [ (sum_i s(i) x_i)^2 ] for 4-wise independent signs
    [s]; rows are averaged and [reps] row-groups medianed, giving a
    [(1 ± eps)] estimate with [rows = O(1/eps^2)]. *)

type t

type params = {
  rows : int;  (** estimators averaged per group; error [~1/sqrt rows] *)
  reps : int;  (** groups medianed; failure probability [2^-Omega(reps)] *)
  hash_degree : int;  (** must be >= 4 for the variance bound *)
}

val default_params : params
(** [rows = 16], [reps = 5], [hash_degree = 4]. *)

val create : Ds_util.Prng.t -> dim:int -> params:params -> t
val update : t -> index:int -> delta:int -> unit

val estimate : t -> float
(** Estimated [||x||_2^2]. *)

val add : t -> t -> unit

module Linear : Linear_sketch.S with type t = t
