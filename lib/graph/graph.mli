(** Reference (in-memory) undirected multigraph with non-negative edge
    multiplicities. This is the ground truth the streaming algorithms are
    verified against — the streaming side never touches it. *)

type t

val create : int -> t
(** [create n] is the empty graph on vertices [0 .. n-1]. *)

val n : t -> int

val add_edge : t -> int -> int -> unit
(** Increment the multiplicity of [{u, v}]. Self-loops are rejected. *)

val remove_edge : t -> int -> int -> unit
(** Decrement the multiplicity of [{u, v}].
    @raise Invalid_argument if the multiplicity is already zero (the model
    forbids negative multiplicities). *)

val multiplicity : t -> int -> int -> int
val mem_edge : t -> int -> int -> bool

val degree : t -> int -> int
(** Number of distinct neighbours (not counting multiplicity). *)

val iter_neighbors : t -> int -> (int -> unit) -> unit

val edges : t -> (int * int) list
(** Distinct edges as pairs [u < v], unordered. *)

val num_edges : t -> int
(** Number of distinct edges. *)

val iter_edges : t -> (int -> int -> unit) -> unit

val copy : t -> t

val of_edges : int -> (int * int) list -> t
(** Graph on [n] vertices with the given distinct edges. *)

val subgraph : t -> keep:(int -> int -> bool) -> t
(** Graph with only the edges passing the predicate. *)

val union : t -> t -> t
(** Union of distinct-edge sets (multiplicities are maxed, not summed). *)

val equal_edge_sets : t -> t -> bool
(** Same distinct-edge sets (ignores multiplicities). *)

val is_subgraph : sub:t -> super:t -> bool
(** Every distinct edge of [sub] is an edge of [super]. *)
