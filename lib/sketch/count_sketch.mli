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

val create_over : Ds_util.Prng.t -> dim:int -> params:params -> table:Ds_util.Words.t -> t
(** {!create} over caller-provided storage (typically a {!Ds_util.Words.view}
    into a container's flat buffer): the sketch aliases [table] instead of
    allocating. This is how a bank of sketches (e.g. the single-pass
    sparsifier's level chain) lives in one contiguous allocation whose
    merge/zero/ship cost is one whole-buffer call.
    @raise Invalid_argument unless [Words.length table = rows * cols]. *)

val rebind : t -> table:Ds_util.Words.t -> t
(** The same sketch (shared hash functions, hence wire-compatible) over new
    storage — how a container's [clone_zero] re-attaches its level views to a
    fresh buffer. @raise Invalid_argument on a length mismatch. *)

val update : t -> index:int -> delta:int -> unit
(** @raise Invalid_argument unless [0 <= index < dim]. *)

val estimate : t -> int -> int
(** [estimate t i] is the median-of-rows estimate of coordinate [i]
    ({!Ds_util.Stats.median_int} over one int per row, so a query allocates
    only that [rows]-word array). @raise Invalid_argument unless
    [0 <= i < dim]. *)

val heavy_hitters : t -> candidates:int list -> threshold:int -> (int * int) list
(** Candidates whose estimated magnitude is at least [threshold]. *)

val add : t -> t -> unit
val sub : t -> t -> unit
val copy : t -> t

val clone_zero : t -> t
(** A fresh zero sketch compatible with [t] (shared hash functions, zero
    table). *)

val reset : t -> unit
val space_in_words : t -> int

val write : t -> Ds_util.Wire.sink -> unit
(** Serialise the table counters (hashes are seed-derived, not shipped). *)

val read_into : t -> Ds_util.Wire.source -> unit
(** Overwrite [t]'s counters; [t] must share the writer's seed/shape.
    @raise Failure on mismatch or truncation. *)

module Linear : Linear_sketch.S with type t = t
