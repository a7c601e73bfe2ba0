(** Connectivity queries from AGM sketches — the simplest consumer of
    {!Agm_sketch} (the [AGM12a] headline result) packaged as an oracle:
    stream once, then ask component counts and u~v connectivity. *)

type t

val create : Ds_util.Prng.t -> n:int -> params:Agm_sketch.params -> t
val update : t -> u:int -> v:int -> delta:int -> unit

type answers

val freeze : t -> answers
(** Extract the spanning forest once; queries are O(alpha(n)) afterwards.
    The sketch can keep receiving updates; [freeze] again for fresh
    answers. *)

val components : answers -> int
val connected : answers -> int -> int -> bool

module Linear : Ds_sketch.Linear_sketch.S with type t = t
(** The oracle as a linear sketch over edge space (delegates to the
    underlying {!Agm_sketch.Linear}). *)
