(** Exact recovery of s-sparse vectors (the paper's [SKETCH_B] / [DECODE]
    primitive, Theorem 8 [CM06]).

    The sketch hashes the index space into [2s] buckets in each of [rows]
    independent rows; each bucket is a {!One_sparse} decoder. Decoding peels:
    any bucket holding a single surviving coordinate reveals it, the
    coordinate is subtracted from every row, and the process repeats. For a
    vector of support at most [s] this recovers everything with probability
    [1 - 2^-Omega(rows)]; failure is {e detected} (some bucket refuses to
    clear), so — unlike the paper's [CM06] matrix — no side F0 sketch is
    needed to know whether decoding succeeded (see DESIGN.md).

    The sketch is linear: [add]/[sub]/[merge] operate bucket-wise, which is
    what lets Algorithm 1 sum the sketches [S^r_j(v)] along a cluster tree. *)

type t

type params = {
  sparsity : int;  (** recovery budget [s]: decode succeeds whp when [||x||_0 <= s] *)
  rows : int;  (** independent hash rows; failure probability [2^-Omega(rows)] *)
  hash_degree : int;  (** independence of the bucket hashes *)
}

val default_params : sparsity:int -> params
(** [rows = 4], [hash_degree = 6] — empirically sound for [n <= 4096]
    (validated by the property tests in [test/test_sketch.ml]). *)

val create : Ds_util.Prng.t -> dim:int -> params:params -> t
(** Fresh sketch of the zero vector over [0, dim). Generators with equal
    state yield compatible (mergeable) sketches. *)

val update : t -> index:int -> delta:int -> unit
(** Add [delta] to coordinate [index]; O(rows) bucket updates. The key fold
    and the fingerprint term are computed once per update (not once per
    row) — all cells share one fingerprint base by construction. *)

val update_batch : t -> (int * int) array -> unit
(** [(index, delta)] pairs, applied in order; equals the fold of {!update}. *)

val decode : t -> (int * int) list Decoded.t
(** Full recovery by peeling. [Found assoc] lists every non-zero
    coordinate with its value (unordered); [Empty] means the peel cleared
    the grid without recovering any, so the vector is (whp) zero;
    [Declined] means the residual did not clear: the vector is
    (detectably) not [s]-sparse. Non-destructive. *)

val add : t -> t -> unit
val sub : t -> t -> unit

val clone_zero : t -> t
(** A fresh zero sketch {e compatible} with [t] (same hashes and fingerprint
    bases, new counters). Large sketch arrays (one instance per vertex) use
    this to share the immutable hash state physically. *)

val reset : t -> unit
(** Zero every counter in place — one fill of the underlying buffer. *)

val space_in_words : t -> int

val write : t -> Ds_util.Wire.sink -> unit
(** Serialise all cell counters (hashes are seed-derived, not shipped). *)

val read_into : t -> Ds_util.Wire.source -> unit
(** Overwrite [t]'s counters; [t] must share the writer's seed/shape.
    @raise Failure on mismatch or truncation. *)

(** {2 Offset kernels}

    A container of many grids — one per level of {!L0_sampler} and {!F0},
    one per vertex and level in [Ds_core.Two_pass_spanner] — keeps one
    {!config} per distinct hash structure and every grid's counters in
    its own {!Ds_util.Words} buffer, each grid at a word offset.  These
    functions take that buffer and offset; none checks bounds. *)

type config
(** A grid's bucket hashes and its one fingerprint ladder. *)

val make_config : Ds_util.Prng.t -> dim:int -> params:params -> config
(** The structure {!create} draws from the same generator state.
    @raise Invalid_argument if [sparsity < 1] or [rows < 1]. *)

val grid_words : config -> int
(** Exact word count of one grid ([rows * cols * 3]): what a container
    reserves per grid. *)

val compatible : config -> config -> bool
(** Same shape and fingerprint base — the merge precondition, checked
    once per container merge instead of once per cell. *)

val update_folded :
  config -> Ds_util.Words.t -> off:int -> index:int -> folded:int -> delta:int -> unit
(** {!update} of the grid at [off] with the key fold hoisted out: [folded]
    must equal [Kwise.fold_key index] — for containers that feed one key
    to many grids. *)

val update_pows :
  config -> Ds_util.Words.t -> off:int -> index:int -> x:int -> x2:int -> x4:int -> delta:int -> unit
(** {!update_folded} with the folded key's square and fourth power also
    hoisted ([x = Kwise.fold_key index], [x2 = Field.mul x x],
    [x4 = Field.mul x2 x2]); containers evaluating many rows/levels at one
    key compute the powers once (see {!Ds_util.Kwise.to_range_pows}). *)

val update_pows_pair :
  config ->
  Ds_util.Words.t ->
  plus:int ->
  minus:int ->
  index:int ->
  x:int ->
  x2:int ->
  x4:int ->
  delta:int ->
  unit
(** [+delta] into the grid at [plus] and [-delta] into the grid at
    [minus], both of structure [config], with one set of bucket
    evaluations and one fingerprint term — the edge-update kernel of
    {!Ds_agm.Agm_sketch}. *)

val decode_at : config -> Ds_util.Words.t -> off:int -> (int * int) list Decoded.t
(** {!decode} of the grid at [off]; peels a private copy. *)

val space_in_words_of : config -> int
(** {!space_in_words} of any grid of this structure. *)

val write_at : config -> Ds_util.Words.t -> off:int -> Ds_util.Wire.sink -> unit
(** {!write} of the grid at [off]. *)

val read_at : config -> Ds_util.Words.t -> off:int -> Ds_util.Wire.source -> unit
(** {!read_into} the grid at [off].
    @raise Failure on mismatch or truncation. *)

module Linear : Linear_sketch.S with type t = t
