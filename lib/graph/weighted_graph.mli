(** Undirected weighted graph with positive real edge weights. The paper's
    weighted model allows adding a weighted edge and later removing it
    entirely (no turnstile weight updates); this reference structure mirrors
    that. *)

type t

val create : int -> t
val n : t -> int

val add_edge : t -> int -> int -> float -> unit
(** Set the weight of [{u, v}]. @raise Invalid_argument on non-positive
    weight or if the edge is already present (the model inserts each
    weighted edge once). *)

val remove_edge : t -> int -> int -> unit
(** Remove the edge entirely. @raise Invalid_argument if absent. *)

val weight : t -> int -> int -> float option
val mem_edge : t -> int -> int -> bool
val iter_edges : t -> (int -> int -> float -> unit) -> unit
val edges : t -> (int * int * float) list
val num_edges : t -> int
val degree : t -> int -> int
val iter_neighbors : t -> int -> (int -> float -> unit) -> unit

val of_edges : int -> (int * int * float) list -> t

val unweighted : t -> Graph.t
(** Forget the weights. *)

val of_graph : ?weight:float -> Graph.t -> t
(** Give every distinct edge the same weight (default [1.0]). *)
