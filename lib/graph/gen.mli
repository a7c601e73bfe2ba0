(** Deterministic (seeded) graph generators — the workload suite for every
    experiment. Families are chosen to stress different parts of the theory:
    G(n,p) for the typical case, paths/cycles/grids for large diameters
    (stretch is only interesting when distances are long), barbells for
    sparse cuts (the hard case for sparsifiers), cliques and clique unions
    for dense neighbourhoods (the hard case for the cluster growth of
    Algorithm 1), and preferential attachment for heavy-tailed degrees. *)

val gnp : Ds_util.Prng.t -> n:int -> p:float -> Graph.t
val gnm : Ds_util.Prng.t -> n:int -> m:int -> Graph.t
(** Exactly [m] distinct uniformly random edges. *)

val path : int -> Graph.t
val cycle : int -> Graph.t
val complete : int -> Graph.t
val star : int -> Graph.t

val grid : int -> int -> Graph.t
(** [grid r c] is the r-by-c 4-neighbour lattice on [r * c] vertices. *)

val barbell : int -> Graph.t
(** Two [K_m] cliques joined by a single edge; [2 m] vertices. *)

val lollipop : int -> int -> Graph.t
(** [lollipop m len]: a [K_m] clique with a path of [len] extra vertices. *)

val disjoint_cliques : Ds_util.Prng.t -> count:int -> size:int -> Graph.t
(** [count] disjoint copies of [K_size] (the Theorem 4 hard instance before
    Bob's path edges are added). *)

val preferential_attachment : Ds_util.Prng.t -> n:int -> m:int -> Graph.t
(** Barabasi–Albert: each new vertex attaches to [m] earlier vertices chosen
    proportionally to degree. Connected; heavy-tailed degrees. *)

val connected_gnp : Ds_util.Prng.t -> n:int -> p:float -> Graph.t
(** G(n,p) with a random Hamiltonian path added, so it is always connected
    (stretch measurements need finite distances). *)

val watts_strogatz : Ds_util.Prng.t -> n:int -> k:int -> beta:float -> Graph.t
(** Small-world graph: ring lattice with [k] neighbours per side, each edge
    rewired with probability [beta]. Connected for [k >= 1]; high clustering
    with short paths — a qualitatively different workload from G(n,p). *)
