(** The single-pass sparsifier's sketch state: a bank of CountSketch tables
    over the edge space, one per (bank, sampling level), in one contiguous
    off-heap buffer.

    Each edge has a seed-derived geometric level [g(e)]
    ([P(g(e) >= l) = 2^-l]), inducing the nested samples
    [E_l = { e | g(e) >= l }] of KLMMS (arXiv 1407.1289). Level [l] of a
    bank stores the {e class} [g(e) = l] (the last level absorbs the tail):
    since the decode chain ({!Sparsify1p}) enumerates candidates and
    re-derives [g(e)] from the seed, membership in any [E_l] is decided by
    the hash alone and the sketch only has to answer multiplicity queries —
    storing the partition instead of the nested prefixes halves the
    collision mass at every level. Banks are independent copies so
    refinement steps that reuse the state can be spread over fresh
    randomness.

    Everything is linear: the whole bank is a single {!Ds_util.Words} buffer
    (each per-level table a word range of it), so merge, subtract, zeroing, LSK1
    shipping, parallel ingestion and checkpointing all compose through
    {!Linear} with no new plumbing. *)

type t

type params = {
  banks : int;  (** independent copies (the decode chain round-robins over them) *)
  levels : int;  (** sampling levels; level [l] subsamples at rate [2^-l] *)
  rows : int;  (** CountSketch rows per level (median decoding) *)
  cols : int;  (** CountSketch buckets per row *)
  hash_degree : int;
}

val default_params : params
(** [banks = 2], [levels = 12], [rows = 5], [cols = 1024], [hash_degree = 6]. *)

val create : Ds_util.Prng.t -> dim:int -> params:params -> t
(** [dim] is the edge-index space, [Edge_index.dim n] for an [n]-vertex
    graph. @raise Invalid_argument on non-positive parameters. *)

val params : t -> params
val dim : t -> int

val update : t -> index:int -> delta:int -> unit
(** Route one signed edge update into its geometric class in every bank —
    the single pass. Cost [rows] cell updates per bank.
    @raise Invalid_argument unless [0 <= index < dim]. *)

val sample_level : t -> bank:int -> index:int -> int
(** The edge's geometric sampling level [g(e)] in [bank] (capped at
    [levels - 1]): the largest [l] with [e in E_l]. Pure function of the
    seed and the index, so decode can re-derive membership without storing
    it. @raise Invalid_argument unless [0 <= index < dim]. *)

val query : t -> bank:int -> level:int -> index:int -> int
(** Median-of-rows CountSketch estimate of the edge's multiplicity, read
    from its class slot — callers pass [level = sample_level ... index].
    Exact (whp) when the class is sparse relative to [cols].
    @raise Invalid_argument unless [0 <= index < dim], [0 <= bank < banks]
    and [0 <= level < levels]. *)

val add : t -> t -> unit
val sub : t -> t -> unit
val reset : t -> unit
val clone_zero : t -> t
val space_in_words : t -> int

module Linear : Ds_sketch.Linear_sketch.S with type t = t
(** Family ["sparsify1p"]; shape
    [[| dim; banks; levels; rows; cols; hash_degree |]]. *)
