(** The Althöfer et al. greedy (2k-1)-spanner: scan edges, keep an edge only
    if the spanner built so far cannot already connect its endpoints within
    [2k - 1] hops. Deterministic given the scan order, size [O(n^{1+1/k})]
    by the girth argument, and the strongest offline size baseline in
    experiment E2 (it is slow: one truncated BFS per edge). *)

val run : k:int -> Ds_graph.Graph.t -> Ds_graph.Graph.t
