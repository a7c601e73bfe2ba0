(** Theorem 1: the two-pass, [~O(n^{1+1/k})]-space streaming construction of
    a [2^k]-spanner (Algorithms 1 and 2).

    Pass 1 maintains, for every vertex [u], sampling level [j] and center
    level [r], the linear sketch [S^r_j(u)] of the edges from [u] into [C_r]
    restricted to the sampled pair set [E_j]. After the pass, cluster trees
    are grown bottom-up: summing member sketches (linearity!) yields a sketch
    of the edges leaving a whole cluster towards [C_{i+1}], from which a
    parent and a witness edge are decoded.

    Pass 2 gives every terminal cluster [Tu] a linear hash table keyed by
    outside vertices [v]. Each key's payload holds [N(v) ∩ Tu] as exact
    member counts when the cluster's [|Tu| - 1] counters fit in the state
    of the L0 sampler that [params.payload] describes (every cluster below
    794 members at the defaults), and as that sampler otherwise. After the
    pass one edge into the cluster is recovered for every outside
    neighbour — exactly the edge set the offline algorithm adds. Exact
    counts give the lowest-ranked member with a positive count.

    The [accessed_edges] field implements the augmentation of Claims 16/18/20
    used by the spectral sparsifier: every edge that a successful pass-1
    decode revealed, and the spanner's edges. Pass 2 reports only the edge
    it adds per key, even where exact counts reveal more. *)

type params = {
  k : int;  (** stretch exponent: the spanner has stretch [<= 2^k] *)
  sketch_sparsity : int;  (** recovery budget of each [S^r_j] (paper: [O(log n)]) *)
  sketch_rows : int;
  table_rows : int;
  capacity_factor : float;
      (** terminal-table cells = [factor * log2 n * n^((i+1)/k)], capped at [2n] *)
  payload : Ds_sketch.Packed_l0.params;
      (** per-key neighbourhood sampler of a cluster whose exact member
          counts would not fit in its state, which sets that threshold *)
  hash_degree : int;
}

val default_params : k:int -> params

type diagnostics = {
  terminals_per_level : int array;
  pass1_decode_failures : int;  (** cluster attach scans that hit an undecodable window *)
  table_decode_failures : int;  (** terminal tables that failed to decode *)
  payload_decode_failures : int;
      (** recovered keys with no member to take: a sampler decline, or exact
          counts with none positive (only negative multiplicities do that) *)
  recovered_edges : int;  (** pass-2 edges added to the spanner *)
}

type result = {
  spanner : Ds_graph.Graph.t;
  accessed_edges : (int * int) list;
  clustering : Clustering.t;
  space_words : int;  (** total words of sketch state across both passes *)
  diagnostics : diagnostics;
}

val run :
  Ds_util.Prng.t ->
  n:int ->
  params:params ->
  Ds_stream.Update.t array ->
  result
(** Processes the stream twice (the two passes); the stream array itself is
    the only re-readable input, exactly as in the model.
    @raise Invalid_argument if [params.k < 1] or [n > 2^30] (pass 2 packs
    two vertex ids into one word per route). *)

val space_bound : n:int -> k:int -> float
(** The Theorem 1 bound [~O(n^{1+1/k})] (unit constant, one log factor) in
    words, for experiment tables. *)

(** {2 Pass-boundary checkpointing}

    The state alive at the boundary between the two passes is exactly the
    pass-1 sketch counters — the structure (hash functions, centers, the
    level hash) is seed-derived and rebuilt by replaying the same PRNG
    chain. [checkpoint] serialises that state into a versioned, checksummed
    blob; [resume_result], given the {e same} caller PRNG, [n], [params] and
    stream, rebuilds the structure, loads the counters and runs the
    clustering plus pass 2, producing a result bit-identical to an
    uninterrupted {!run} — across process boundaries. *)

val checkpoint :
  Ds_util.Prng.t ->
  n:int ->
  params:params ->
  Ds_stream.Update.t array ->
  string
(** Run pass 1 only and serialise its state. The caller PRNG is consumed
    exactly as by {!run}. *)

(** Why a checkpoint was rejected, in the order the checks run — what
    callers branch on (the CLI's clean exit-code path, the self-healing
    fallback below). *)
type checkpoint_error =
  | Envelope of Ds_util.Envelope.error
      (** truncated, corrupt (caught before any parsing), not a TPS1
          checkpoint at all, a malformed body or trailing bytes *)
  | Header_mismatch of { field : string }
      (** a valid checkpoint taken with different [n], [params] or level
          count — resuming it would decode garbage *)

val pp_checkpoint_error : Format.formatter -> checkpoint_error -> unit

val resume_result :
  Ds_util.Prng.t ->
  n:int ->
  params:params ->
  checkpoint:string ->
  Ds_stream.Update.t array ->
  (result, checkpoint_error) Stdlib.result
(** Rebuild pass-1 structure from the PRNG chain, restore the checkpointed
    counters, and finish: clustering, pass 2 over the stream, spanner
    assembly. [run rng ... stream] and
    [resume_result rng ... ~checkpoint:(checkpoint rng ... stream) stream]
    (with equal-seed PRNGs) give identical results.  [Error] if the
    checkpoint is corrupt, truncated, or was taken with different
    [n]/[params]. *)

val resume_or_restart :
  Ds_util.Prng.t ->
  n:int ->
  params:params ->
  checkpoint:string ->
  Ds_stream.Update.t array ->
  result * [ `Resumed | `Recomputed of checkpoint_error ]
(** Self-healing resume: try the checkpoint, and if it is rejected for any
    reason fall back to recomputing pass 1 from the stream (which the model
    allows — the stream array is the re-readable input). Because the PRNG
    chain is derived without consuming the caller generator, the fallback
    result is bit-identical to an uninterrupted {!run}; the verdict reports
    which path produced it and, when recomputed, why the checkpoint was
    rejected. *)
