(** The [AGM12b]-style multi-pass streaming spanner: the tradeoff the paper
    positions Theorem 1 against. [k] passes, stretch [2k - 1], space
    [~O(n^{1+1/k})] — a sketch-based Baswana–Sen.

    Pass [i] (for [i = 1 .. k-1]) implements one clustering round: clusters
    surviving from the previous round are sampled at rate [n^{-1/k}] before
    the pass; during the pass every live unclustered vertex sketches

    - an L0-sampler of its edges into {e sampled} clusters (to join one), and
    - a {!Ds_sketch.Sketch_table} keyed by {e cluster id} whose payload
      samples one incident neighbour per adjacent cluster (used when there is
      no sampled neighbour: the vertex keeps one edge per adjacent cluster
      and retires).

    The final pass gives every surviving vertex the same per-cluster table
    to connect it to all adjacent clusters. All filtering (retired vertices,
    intra-cluster edges) depends only on the clustering fixed before the
    pass, so each pass is a linear sketch of the stream.

    Contrast with {!Two_pass_spanner}: pass count [k] vs 2, stretch [2k-1]
    vs [2^k] — the two ends of the tradeoff in the paper's Section 1. *)

type params = {
  k : int;
  table_capacity_factor : float;  (** cells per table = [factor * log2 n * n^{1/k}] *)
  table_rows : int;
  payload : Ds_sketch.Packed_l0.params;
  sampler : Ds_sketch.L0_sampler.params;
  hash_degree : int;
}

val default_params : k:int -> params

type result = {
  spanner : Ds_graph.Graph.t;
  passes : int;
  space_words : int;  (** maximum sketch state alive during any single pass *)
}

val run : Ds_util.Prng.t -> n:int -> params:params -> Ds_stream.Update.t array -> result

val stretch_bound : k:int -> int
(** [2k - 1]. *)
