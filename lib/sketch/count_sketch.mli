(** CountSketch [CCF02]: linear frequency estimation with median-of-rows
    decoding. The paper notes (after Theorem 8) that CountSketch can replace
    the [CM06] recovery matrix at better log factors; we provide it both for
    that ablation and as a general substrate. *)

type t

type params = {
  rows : int;  (** independent rows (median taken across them) *)
  cols : int;  (** buckets per row; estimation error is [||x||_2 / sqrt cols] *)
  hash_degree : int;
}

val default_params : params
(** [rows = 5], [cols = 256], [hash_degree = 6]. *)

val create : Ds_util.Prng.t -> dim:int -> params:params -> t

val update : t -> index:int -> delta:int -> unit
(** @raise Invalid_argument unless [0 <= index < dim]. *)

val estimate : t -> int -> int
(** [estimate t i] is the median-of-rows estimate of coordinate [i]
    ({!Ds_util.Stats.median_int} over one int per row, so a query allocates
    only that [rows]-word array). @raise Invalid_argument unless
    [0 <= i < dim]. *)

(** {2 Offset kernels}

    A bank of CountSketch tables ({!Ds_sparsify.Level_bank}) keeps one
    {!config} per table and every table's counters in one
    {!Ds_util.Words} buffer, each at a word offset.  These functions take
    that buffer and offset and check no bounds. *)

type config
(** The bucket and sign hashes of one table. *)

val make_config : Ds_util.Prng.t -> dim:int -> params:params -> config
(** The structure {!create} draws from the same generator state.
    @raise Invalid_argument on non-positive [rows] or [cols]. *)

val update_at : config -> Ds_util.Words.t -> off:int -> index:int -> delta:int -> unit
(** {!update} of the table at [off]; requires [0 <= index < dim]. *)

val estimate_at : config -> Ds_util.Words.t -> off:int -> int -> int
(** {!estimate} from the table at [off]; requires [0 <= index < dim]. *)

val space_in_words_of : config -> int
(** The space of any table of this structure: [rows * cols] counters plus
    the hash coefficients. *)

module Linear : Linear_sketch.S with type t = t
