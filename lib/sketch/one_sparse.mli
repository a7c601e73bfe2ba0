(** Exact recovery of 1-sparse vectors from a 3-word linear sketch.

    This is the Ganguly decoder: for a vector [x] over index space
    [0, dim) updated by signed increments, maintain

    - [c0 = sum_i x_i] (exact integer),
    - [c1 = sum_i x_i * i] (exact integer),
    - [c2 = sum_i x_i * r^(i+1)] in [F_p] for a random [r].

    If [x] has exactly one non-zero coordinate [i] with value [w], then
    [c1 / c0 = i] and [c2 = w * r^(i+1)]; the fingerprint test makes a false
    positive occur with probability at most [dim / p] per query. This is the
    atom from which every other sketch in the library is built (Theorem 8's
    recovery matrix is a hashed array of these). *)

type t
(** Mutable sketch state (3 words + the shared fingerprint ladder). *)

type result =
  | Zero  (** the sketched vector is (whp) identically zero *)
  | One of int * int  (** [One (i, w)]: single non-zero coordinate [i] of value [w] *)
  | Many  (** more than one non-zero coordinate (or fingerprint mismatch) *)

val create : Ds_util.Prng.t -> dim:int -> t
(** Fresh sketch of the zero vector over [0, dim). Two sketches built from
    generators with equal state are {e compatible}: they use the same
    fingerprint base and may be merged. *)

val update : t -> index:int -> delta:int -> unit
(** Add [delta] to coordinate [index]. O(1) field ops: the fingerprint power
    [r^(index+1)] comes from a cached ladder ({!Ds_util.Field.Pow}) built
    once per base at {!create} time and shared by {!copy}/{!clone_zero}.
    @raise Invalid_argument unless [0 <= index < dim]. *)

val update_batch : t -> (int * int) array -> unit
(** [update_batch t pairs] applies [(index, delta)] pairs in order;
    equivalent to folding {!update} over the array. *)

val clone_zero : t -> t
(** A fresh zero sketch compatible with [t]: shares the fingerprint base and
    the (immutable) power ladder. Allocates a private 3-word buffer. *)

(** {2 Offset kernels}

    A container holding a grid of cells that share one fingerprint base
    ({!Sparse_recovery}) keeps one {!config} — the fingerprint ladder —
    and the cells' counters in its own buffer, each cell a triple at a
    word offset.  The triple layout matches {!Ds_util.Words.add_tri}, so
    the whole grid merges with one buffer-level call.  The kernels skip
    every check; misuse voids decoding. *)

type config
(** Dimension, fingerprint base and the cached power ladder. *)

val make_config : Ds_util.Prng.t -> dim:int -> config
(** The ladder {!create} draws from the same generator state. *)

val state_words : int
(** 3: the number of buffer words a cell occupies (c0, c1, c2). *)

val compatible : config -> config -> bool
(** Same dimension and fingerprint base — the merge precondition.
    Containers check this once per merge instead of once per cell. *)

val fingerprint_pow : config -> int -> int
(** [fingerprint_pow c index] is [r^(index+1)] from the cached ladder.
    Requires [0 <= index < dim] (unchecked). *)

val update_at : Ds_util.Words.t -> off:int -> index:int -> delta:int -> term:int -> unit
(** [update_at words ~off ~index ~delta ~term] adds [delta] at [index] to
    the cell at [words.[off .. off+2]], where [term] must equal
    [Field.scale_int delta (fingerprint_pow c index)]. No bounds check. *)

val decode_at : config -> Ds_util.Words.t -> off:int -> result
(** {!decode} of the cell at [words.[off .. off+2]]. *)

val decode : t -> result
(** Classify the current vector. *)

val is_zero : t -> bool
(** [decode t = Zero], cheaper to call. *)

val add : t -> t -> unit
(** [add dst src] sets [dst := dst + src] (compatible sketches only). *)

val sub : t -> t -> unit
(** [sub dst src] sets [dst := dst - src]. *)

val copy : t -> t

val reset : t -> unit
(** Back to the zero vector. *)

val space_in_words : t -> int

val write : t -> Ds_util.Wire.sink -> unit
(** Serialise the counters (structure is seed-derived and not shipped). *)

val read_into : t -> Ds_util.Wire.source -> unit
(** Overwrite [t]'s counters with serialised ones. [t] must have been built
    from the same seed/dimension as the writer; the dimension is checked.
    @raise Failure on tag/dimension mismatch or truncation. *)

val write_raw : t -> Ds_util.Wire.sink -> unit
(** The three counters only — no header. For containers that frame their
    cells themselves (see {!Sparse_recovery.write}). *)

val read_raw : t -> Ds_util.Wire.source -> unit

module Linear : Linear_sketch.S with type t = t
(** The universal interface: {!Linear_sketch.serialize} and friends over
    this sketch. *)
