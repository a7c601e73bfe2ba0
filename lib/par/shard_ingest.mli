(** Domain-parallel sketch ingestion: a static partition summed by linearity.

    Linear sketches commute with stream partitioning: for any split of the
    update array into shards, the sum of per-shard sketches equals the
    sketch of the whole stream — {e exactly}, counter for counter, provided
    every replica is built from the same seed-derived structure. That is the
    property the paper's distributed setting rests on (Section 1), and it is
    what makes this module's output bit-identical to sequential ingestion
    (property-tested in [test/test_par.ml]).

    With [W = min (Pool.size pool) (Array.length items)] workers, worker [w]
    applies [update] once to the contiguous slice
    [[w*n/W, (w+1)*n/W)] of the caller's array (no copy). Every update of
    a linear sketch costs the same in expectation, so equal slices are
    balanced without any runtime scheduling. Slot 0 writes straight into the
    caller's sketch; every other slot writes into a
    {!Ds_agm.Agm_sketch.clone_zero}-style replica (sharing the immutable hash
    state physically, so a replica costs only its counters), which the
    caller's domain [add]s in at the end. Integer counter addition is
    commutative and associative, so the pool size is invisible in the
    result. *)

(** {2 Replica arenas} *)

type 's arena
(** Keeps worker replicas alive across runs so repeated ingests into the
    same sketch structure stop allocating: a slot's replica is created
    (one [clone_zero]) the first time that slot is ever used, and every
    later run hands it back after a [reset] — one off-heap buffer fill
    back to the zero vector. An arena is tied to one sketch {e structure}:
    reusing it with a sketch of different shape or seed is a contract
    violation (the family's own compatibility check will reject the
    merge). It may be shared by pools of different sizes. Not
    concurrency-safe across overlapping ingests. *)

val arena : ?bytes_of:('s -> int) -> reset:('s -> unit) -> unit -> 's arena
(** [reset] must return a replica to the zero sketch in place
    (e.g. {!Ds_agm.Agm_sketch.reset}); [bytes_of] (default [fun _ -> 0])
    prices a replica for the [par.ingest.arena_bytes] gauge. *)

val arena_of : 's Ds_sketch.Linear_sketch.impl -> 's arena
(** An arena for any linear family, priced at [8 * space_in_words]. *)

val agm_arena : unit -> Ds_agm.Agm_sketch.t arena

val arena_bytes : 's arena -> int
(** Off-heap bytes currently held by the arena's replicas (also exported
    as the [par.ingest.arena_bytes] gauge after every arena-backed run). *)

(** {2 Ingestion} *)

val ingest_into :
  Pool.t ->
  ?arena:'s arena ->
  clone_zero:('s -> 's) ->
  update:('s -> 'a array -> pos:int -> len:int -> unit) ->
  add:('s -> 's -> unit) ->
  's ->
  'a array ->
  unit
(** [ingest_into pool ~clone_zero ~update ~add sketch items] adds the
    sketch of [items] into [sketch] on the pool. [update s data ~pos ~len]
    must apply [data.(pos .. pos+len-1)] to [s]; it runs once per worker
    slice, on a pool domain. Worker slot 0 ingests directly into [sketch]
    (clone-free and merge-free on a one-domain pool); the other slots'
    replicas are [clone_zero] copies — or recycled from [arena] when one is
    attached, cloning only on a slot's first use ever — added into [sketch]
    at the end. [clone_zero] runs on the worker's own domain and must
    return a physically fresh sketch. If [update] raises, the sketch may be
    left with a partially applied stream (the exception still
    propagates). *)

val linear :
  Pool.t ->
  ?arena:'s arena ->
  's Ds_sketch.Linear_sketch.impl ->
  's ->
  (int * int) array ->
  unit
(** [linear pool impl sketch pairs] ingests an [(index, delta)] array into
    {e any} sketch implementing {!Ds_sketch.Linear_sketch.S} — the one
    generic entry point; bit-identical to applying [pairs] sequentially. *)

val agm :
  Pool.t ->
  ?arena:Ds_agm.Agm_sketch.t arena ->
  Ds_agm.Agm_sketch.t ->
  Ds_stream.Update.t array ->
  unit
(** AGM edge-stream ingest: each worker slice runs through
    {!Ds_agm.Agm_sketch.update_slice}, the same locality-sorted batched
    kernel (key-power tables included) as single-thread ingestion. *)
