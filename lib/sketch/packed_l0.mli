(** An L0-sampler codec over externally owned {!Ds_util.Words} state.

    This is the payload format for {!Sketch_table} cells: Algorithm 2 stores,
    for each key [v], a sketch of [N(v) ∩ Tu ∩ Y_j] from which one neighbour
    must be recoverable. The state here is a flat word buffer under plain
    componentwise addition — even the field fingerprints are kept as
    unreduced integer accumulators and only reduced at decode time — so a
    containing structure can add/subtract payloads without knowing their
    semantics. That property is what makes the table's peeling sound.

    Layout: [reps] independent repetitions, each with its own geometric level
    hash; per level a [2 x 2*sparsity] grid of 1-sparse (count, index-sum,
    fingerprint) triples, peeled at decode time. *)

type config
(** Immutable hash functions and dimensions; shared by all states using it. *)

type params = {
  reps : int;  (** independent repetitions; failure decays exponentially *)
  sparsity : int;  (** per-level peelable support *)
  hash_degree : int;
}

val default_params : params
(** [reps = 2], [sparsity = 3], [hash_degree = 6]. *)

val make_config : Ds_util.Prng.t -> dim:int -> params:params -> config

val state_len : config -> int
(** Word length of the state window required. *)

type prepared
(** One update's per-index work, done once: the folded index and its
    powers, the fingerprint term, and per rep the top level and both bucket
    columns. Applying it touches only counters, so a caller that adds the
    same [(index, delta)] into several state windows (one per
    {!Sketch_table} row) hashes the index once. *)

val prepare : config -> index:int -> delta:int -> prepared
(** @raise Invalid_argument unless [0 <= index < dim]. *)

val update_prepared : config -> prepared -> Ds_util.Words.t -> off:int -> unit
(** Add the prepared contribution into [state.(off .. off + state_len - 1)].
    [prepared] must come from [prepare] on the same [config]. *)

val update : config -> Ds_util.Words.t -> off:int -> index:int -> delta:int -> unit
(** Add [delta] to coordinate [index] of the vector sketched in
    [state.(off .. off + state_len - 1)]: [update_prepared] of
    [prepare ~index ~delta], the one update path.
    @raise Invalid_argument unless [0 <= index < dim]. *)

val decode : config -> Ds_util.Words.t -> off:int -> (int * int) option
(** [Some (index, value)] for one non-zero coordinate (near-uniform among
    the support), or [None] if the vector is zero or decoding failed. *)

val dim : config -> int
val config_space_in_words : config -> int

(** The codec bundled with one state array of its own — the packed sampler
    as a first-class sketch. {!Sketch_table} cells keep using the
    external-state API above; this form is what the linear-sketch interface
    registers. *)
module Owned : sig
  type t

  val create : Ds_util.Prng.t -> dim:int -> params:params -> t
  val config : t -> config

  val update : t -> index:int -> delta:int -> unit
  val sample : t -> (int * int) option

  val clone_zero : t -> t
  val copy : t -> t
  val reset : t -> unit
  val add : t -> t -> unit
  val sub : t -> t -> unit
  val space_in_words : t -> int
  val write : t -> Ds_util.Wire.sink -> unit

  val read_into : t -> Ds_util.Wire.source -> unit
  (** @raise Failure on mismatch or truncation. *)
end

module Linear : Linear_sketch.S with type t = Owned.t
