(** Theorem 4 as an executable experiment: the INDEX communication game.

    Alice holds [s = ceil(3 n / d)] independent [G(d, 1/2)] graphs
    (her input bits) and streams their disjoint union through a space-
    bounded one-pass streaming spanner (our Algorithm 3 instance). Bob
    receives the algorithm state (in the simulation, the same in-memory
    sketch — exactly what the reduction means), picks a uniformly random
    block [J] and pair [{U, V}] inside it, inserts his random path edges
    [{V_l, U_{l+1}}], finishes the pass, and answers "the bit [X_{U,V}] is
    1" iff the edge appears in the returned spanner.

    Theorem 4 says any algorithm with additive distortion [n/d] and success
    probability [>= 6/7] must use [Omega(n d)] bits, so sweeping the
    algorithm's space budget must show success probability rising from
    coin-flipping to near-1 as the budget crosses [Theta(n d)] — experiment
    E5. *)

type outcome = {
  trials : int;
  correct : int;  (** Bob's answer equals the true bit *)
  mean_space_words : float;  (** measured streaming-state size *)
  mean_distortion : float;  (** measured additive distortion of the returned spanners *)
}

val play : Ds_util.Prng.t -> n:int -> d:int -> algo_budget:int -> trials:int -> outcome
(** [n, d]: instance shape (the hard distribution has [ceil(3 n/d)]
    blocks of [d] vertices; the factor 3 is scaled down from the paper's
    18 to keep laptop-size instances meaningful).
    [algo_budget]: the [d] parameter handed to the streaming spanner — its
    space is [~O(n * algo_budget)]. *)

val success_rate : outcome -> float
