(** Connectivity queries from AGM sketches — the simplest consumer of
    {!Agm_sketch} (the [AGM12a] headline result) packaged as an oracle:
    stream once, then ask component counts and u~v connectivity. *)

type t

val create : Ds_util.Prng.t -> n:int -> params:Agm_sketch.params -> t
val update : t -> u:int -> v:int -> delta:int -> unit

val update_batch : t -> Ds_stream.Update.t array -> unit
(** Apply a whole update array; may regroup for locality (linearity makes
    the final state order-independent, bit-for-bit). *)

val clone_zero : t -> t
(** A fresh empty oracle compatible with [t]; shards for pre-sharded
    (parallel or distributed) ingestion are clones of one prototype. *)

val absorb : t -> t -> unit
(** [absorb t shard] adds a compatible shard's sketch into [t] (linearity);
    after absorbing every shard, [freeze] answers for the union stream. *)

val add : t -> t -> unit
(** Alias of {!absorb}. *)

val sub : t -> t -> unit
(** Subtract a compatible oracle's counters. *)

type answers

val freeze : t -> answers
(** Extract the spanning forest once; queries are O(alpha(n)) afterwards.
    The sketch can keep receiving updates; [freeze] again for fresh
    answers. *)

val components : answers -> int
val connected : answers -> int -> int -> bool
val component_of : answers -> int -> int
(** Smallest vertex id in the component. *)

val space_in_words : t -> int

module Linear : Ds_sketch.Linear_sketch.S with type t = t
(** The oracle as a linear sketch over edge space (delegates to the
    underlying {!Agm_sketch.Linear}). *)
