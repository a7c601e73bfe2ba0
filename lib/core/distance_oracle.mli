(** The paper's motivating application, packaged: an approximate
    shortest-path-distance oracle built from a dynamic stream in two passes.

    Construction sketches the stream with {!Two_pass_spanner}; queries run
    breadth-first searches on the retained spanner, memoised per source.
    Distance estimates [d^] obey [d <= d^ <= stretch * d]. *)

type t

val of_stream :
  Ds_util.Prng.t -> n:int -> k:int -> Ds_stream.Update.t array -> t
(** Two passes; stretch [2^k]. *)

val query : t -> int -> int -> float
(** Estimated distance; [infinity] if disconnected in the spanner. O(m) on
    first use of a source, O(1) after (memoised). *)

val stretch : t -> float
(** The multiplicative guarantee of this oracle's estimates. *)

val spanner_edges : t -> int
val space_words : t -> int
(** Sketch state used during construction (the oracle itself then keeps
    only the spanner). *)
