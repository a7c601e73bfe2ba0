(** AGM graph-connectivity sketches (Theorem 10, [AGM12a]).

    Every vertex [u] carries L0-samplers of its {e signed incidence vector}:
    the vector over edge space with entry [+m] at [idx(u,v)] if [u < v] and
    [-m] if [u > v], where [m] is the multiplicity of [{u,v}]. Summing these
    vectors over a vertex set [S] cancels the edges inside [S] exactly, so a
    sample from the merged sketch is an edge leaving [S] — which is what a
    Boruvka round needs. One independent sampler copy is consumed per round
    (re-using a copy would condition on its own output).

    Beyond Theorem 10 the paper relies on two structural properties that this
    module exposes directly (both are consequences of linearity):
    - {!subtract_graph}: remove an explicitly known edge set (Algorithm 3
      subtracts [E_low] before computing its spanning forest);
    - supernode contraction: {!spanning_forest} takes an optional vertex
      labelling and computes a forest of the contracted multigraph by merging
      member sketches. *)

type t

type params = {
  copies : int;  (** independent sampler copies = Boruvka round budget *)
  sampler : Ds_sketch.L0_sampler.params;
}

val default_params : n:int -> params
(** [copies = ceil(log2 n) + 3] with the default L0 parameters. *)

val create : Ds_util.Prng.t -> n:int -> params:params -> t

val n : t -> int

val copies : t -> int
(** The sketch's repetition count (independent sampler copies). *)

val certified_delta : n:int -> copies:int -> float
(** The failure probability a decode can still certify when only [copies]
    repetitions are usable: [2^(ceil(log2 n) - copies)] clamped to 1.
    Extraction needs ~[ceil(log2 n)] Boruvka rounds; spare copies are retry
    slack, each at least halving the residual failure probability. With the
    default budget ([ceil(log2 n) + 3]) this certifies delta = 1/8; every
    lost repetition doubles it, and below [ceil(log2 n)] nothing is
    certified. The degraded-delta ledger of the supervised cluster
    protocol. *)

val update : t -> u:int -> v:int -> delta:int -> unit
(** Stream an edge-multiplicity update into both endpoints' sketches. The
    edge index is encoded, key-folded and level-hashed once per copy (not
    once per sampler row) — the hot-path kernel of every AGM consumer. *)

val update_batch : t -> Ds_stream.Update.t array -> unit
(** Apply a whole update array; the final state equals the fold of {!update}
    with [delta = Update.delta] bit-for-bit. Large batches are regrouped by
    lower endpoint for cache locality before applying — sound because the
    sketch is linear, so application order cannot matter. *)

val update_slice : t -> Ds_stream.Update.t array -> pos:int -> len:int -> unit
(** {!update_batch} restricted to [updates.(pos .. pos+len-1)], without
    copying the slice — the per-worker entry point of the parallel
    ingestion ({!Ds_par.Shard_ingest.agm}); large slices get the same
    lower-endpoint locality regrouping.
    @raise Invalid_argument if the range is out of bounds. *)

val clone_zero : t -> t
(** A fresh empty sketch compatible with [t] (same seed-derived structure,
    physically shared hash functions and fingerprint ladders, zero
    counters). This is how sharded ingestion builds per-domain replicas
    whose sums decode exactly like a sequentially built sketch. *)

val subtract_graph : t -> Ds_graph.Graph.t -> unit
(** Remove every distinct edge of the given graph (with its multiplicity 1)
    from the sketched multigraph. The caller must know these edges exist;
    over-subtraction makes multiplicities negative and voids the model. *)

val add : t -> t -> unit
(** Merge the sketch of another update stream (distributed setting). One
    kernel pass over the two sketches' contiguous counter buffers. *)

val sub : t -> t -> unit
(** Subtract another sketch's counters — delete its whole update stream. *)

val reset : t -> unit
(** Zero every counter in place (one buffer fill), keeping the structure —
    what lets an ingestion arena recycle replicas across runs. *)

val spanning_forest : ?labels:int array -> ?copies:int array -> t -> (int * int) list
(** Extract a spanning forest of the sketched multigraph with high
    probability. [labels] (optional) assigns every vertex a supernode; the
    forest then spans the contracted multigraph, with each returned edge
    being an original graph edge whose endpoints lie in different supernodes.
    [copies] (optional) restricts extraction to the given repetition
    indices, in the given order — the degraded decode of the supervised
    cluster protocol, where only a surviving quorum of repetitions is
    trustworthy; the round budget shrinks accordingly (see
    {!certified_delta}). Non-destructive. *)

val space_in_words : t -> int

val write : t -> Ds_util.Wire.sink -> unit
val read_into : t -> Ds_util.Wire.source -> unit
(** Raw counter body (no envelope); building blocks for {!Linear}. *)

module Linear : Ds_sketch.Linear_sketch.S with type t = t
(** The sketch as a linear sketch over {e edge space}: [update ~index]
    decodes [index] with {!Ds_graph.Edge_index.decode} and streams a
    multiplicity update of that edge (both endpoints' signed incidence
    vectors move together). *)

val serialize : ?trace:Ds_obs.Trace.context -> t -> string
(** Wire form of the counters only — what a server ships to the coordinator
    (the structure is rebuilt from the shared seed on the other side).
    Equal to [Linear_sketch.serialize (module Linear)]: the versioned,
    checksummed envelope.  [?trace] embeds a trace-context extension
    (see {!Ds_sketch.Linear_sketch.serialize}); omitted, the bytes are
    unchanged from previous versions. *)

val deserialize_into : t -> string -> unit
(** Overwrite [t]'s counters with a serialised sketch. [t] must have been
    created from the same seed and parameters as the sender's sketch.
    @raise Failure on shape mismatch, checksum failure or corrupt input. *)

val deserialize_result : t -> string -> (unit, Ds_sketch.Linear_sketch.error) result
(** Typed-error variant of {!deserialize_into} — what a supervising
    coordinator branches on to decide retry vs refuse. *)

(** One repetition of the sketch as a first-class linear sketch (family
    ["agm_copy"]). This is the unit of shipping in the supervised cluster
    protocol: each server sends every repetition as its own checksummed
    envelope, so a fault costs one repetition, not the whole sketch, and a
    permanently lost server still leaves a decodable quorum of repetitions
    ({!spanning_forest}'s [copies] argument). Slices alias the parent
    sketch's counters — merging into a slice merges into the parent. *)
module Copy : sig
  type slice

  val slice : t -> int -> slice
  (** The parent's repetition [c] (shared counters, not a copy). *)

  val index : slice -> int
  (** Which repetition this slice is. *)

  module Linear : Ds_sketch.Linear_sketch.S with type t = slice
  (** The copy index is part of the wire shape: repetition [c]'s envelope is
      rejected by any other repetition's slice, because each repetition
      derives independent hash structure from its own seed chain. *)

  val serialize : ?trace:Ds_obs.Trace.context -> slice -> string

  val absorb_result : slice -> string -> (unit, Ds_sketch.Linear_sketch.error) result
  (** Validate-and-sum one repetition envelope into the parent sketch. *)
end
