(** Exact shortest paths on the reference graph — the verification oracle
    for every spanner experiment (unit edge lengths; see {!Dijkstra} for
    weighted graphs). *)

val distances : Graph.t -> source:int -> int array
(** Unit-length distances from [source]; [max_int] for unreachable. *)

val distances_capped : Graph.t -> source:int -> cap:int -> int array
(** Like {!distances} but the search stops expanding beyond distance [cap]
    (entries further than [cap] stay [max_int]). Used by the sparsifier's
    distance-oracle queries, which only care whether [d > threshold]. *)

val distance : Graph.t -> int -> int -> int
(** Pairwise distance; [max_int] if disconnected. *)
