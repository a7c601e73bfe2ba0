(** L0 sampling: draw a (near-)uniform non-zero coordinate of a dynamically
    updated vector from a linear sketch.

    One {!Sparse_recovery} instance per geometric sampling level; sampling
    scans from the sparsest level downward, decodes the first level with a
    non-empty support and returns the member minimising an independent
    tie-break hash. This is the primitive [AGM12a] builds connectivity from,
    and the structure the paper's [Y_j] sets emulate (Section 3.2 notes the
    two are interchangeable). Uniformity is validated empirically in
    experiment E9. *)

type t

type params = {
  sparsity : int;  (** per-level recovery budget (>= 1) *)
  rows : int;  (** hash rows per level sketch *)
  hash_degree : int;
}

val default_params : params
(** [sparsity = 2], [rows = 3], [hash_degree = 6]. *)

val create : Ds_util.Prng.t -> dim:int -> params:params -> t

val update : t -> index:int -> delta:int -> unit
(** Expected O(rows) bucket updates (levels are nested, so a coordinate at
    level [l] touches [l + 1] sketches; E[l] = 1). The key fold happens once
    per update and is shared across levels and rows. *)

val update_batch : t -> (int * int) array -> unit
(** [(index, delta)] pairs, applied in order; equals the fold of {!update}. *)

val clone_zero : t -> t
(** A fresh zero sampler compatible with [t], sharing its (immutable) hash
    functions and fingerprint ladders: one zeroed buffer allocation. *)

val update_folded : t -> index:int -> folded:int -> delta:int -> unit
(** {!update} with the key fold hoisted out: [folded] must equal
    [Kwise.fold_key index]. No bounds check. *)

val sample : t -> (int * int) option
(** [Some (index, value)] for a non-zero coordinate chosen near-uniformly,
    or [None] when the vector is zero or sampling failed (detected). *)

val classify : t -> [ `Empty | `Sample of int * int | `Fail ]
(** Like {!sample} but separates the two [None] cases: [`Empty] certifies
    (whp) that the vector is zero, [`Fail] is a detected decoding failure
    (the support exists but no level isolated it). Boruvka loops need the
    distinction to tell "done" from "retry with a fresh copy". *)

val add : t -> t -> unit
val sub : t -> t -> unit
val copy : t -> t

val reset : t -> unit
(** Zero every counter in place — one fill of the underlying buffer. *)

val space_in_words : t -> int

val write : t -> Ds_util.Wire.sink -> unit
val read_into : t -> Ds_util.Wire.source -> unit
(** Counter (de)serialisation; see {!Ds_sketch.One_sparse.write}. *)

(** {2 Offset kernels}

    {!Ds_agm.Agm_sketch} holds [copies x n] samplers: one {!config} per
    copy, shared by all [n] vertices, and every sampler's counters in one
    {!Ds_util.Words} buffer at a word offset.  These functions take that
    buffer and offset; none checks bounds. *)

type config
(** The level and tie-break hashes and one {!Sparse_recovery.config} per
    level. *)

val make_config : Ds_util.Prng.t -> dim:int -> params:params -> config
(** The structure {!create} draws from the same generator state. *)

val state_words : config -> int
(** Word count of one sampler's counters (every level's grid): the
    reservation a container makes per sampler. *)

val compatible : config -> config -> bool
(** Same shape, hashes drawn from equal seeds — the merge precondition. *)

val level_of_pows : config -> x:int -> x2:int -> x4:int -> int
(** The sampling level of a folded key [x] (with [x2 = Field.mul x x] and
    [x4 = Field.mul x2 x2]), capped to the level count.  Samplers sharing
    a config share levels, so a container evaluates this once per
    update. *)

val update_prepared_pair_pows :
  config ->
  Ds_util.Words.t ->
  plus:int ->
  minus:int ->
  index:int ->
  x:int ->
  x2:int ->
  x4:int ->
  level:int ->
  delta:int ->
  unit
(** [+delta] into the sampler at [plus] and [-delta] into the one at
    [minus], with [level = level_of_pows c ~x ~x2 ~x4] and one set of hash
    evaluations (see {!Sparse_recovery.update_pows_pair}). *)

val classify_at : config -> Ds_util.Words.t -> off:int -> [ `Empty | `Sample of int * int | `Fail ]
(** {!classify} of the sampler at [off]. *)

val space_in_words_of : config -> int
(** {!space_in_words} of any sampler of this structure. *)

val write_at : config -> Ds_util.Words.t -> off:int -> Ds_util.Wire.sink -> unit
(** {!write} of the sampler at [off]. *)

val read_at : config -> Ds_util.Words.t -> off:int -> Ds_util.Wire.source -> unit
(** {!read_into} the sampler at [off].
    @raise Failure on mismatch or truncation. *)

module Linear : Linear_sketch.S with type t = t
