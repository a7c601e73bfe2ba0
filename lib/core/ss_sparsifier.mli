(** Theorem 7: the Spielman–Srivastava offline sparsifier [SS08] — sample
    each edge independently with probability [p_e = min(1, C w_e R_e log n /
    eps^2)] and weight survivors by [1/p_e]. This is the quality baseline
    (experiment E7): it sees the whole graph and exact resistances, which no
    streaming algorithm can, so it bounds what the two-pass pipeline could
    hope for. *)

val run : Ds_util.Prng.t -> eps:float -> Ds_graph.Weighted_graph.t -> Ds_graph.Weighted_graph.t
(** The constant [C] is 0.5, tuned so that sizes at laptop scale are
    non-trivial; quality/size both appear in the tables. *)

val expected_size : eps:float -> Ds_graph.Weighted_graph.t -> float
(** [sum_e p_e], the expected number of sampled edges. *)
