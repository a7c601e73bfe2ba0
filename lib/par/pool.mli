(** A fixed-size pool of OCaml 5 domains with a shared job queue.

    The pool exists to parallelise {e sketch ingestion}: linear sketches of
    stream shards can be built on separate domains and summed afterwards
    (see {!Shard_ingest}), which is the same decomposition the paper's
    distributed setting uses across servers. Workers are spawned once at
    {!create} and persist until {!shutdown} — callers batch work through
    {!run} without paying a domain spawn per call.

    Scheduling is deliberately minimal (one mutex, one condition variable,
    FIFO queue): ingestion jobs are long and coarse — {!Shard_ingest}
    submits one equal slice per domain — so queue contention is
    irrelevant. Telemetry on the submit/pop path is sampled (one gauge
    write per 32 queue operations, outside the lock) so enabling metrics
    cannot serialize the workers. Do {e not} call
    {!run} from inside a job — a worker waiting on its own pool can
    deadlock when every other worker is busy. *)

type t

val create : ?domains:int -> unit -> t
(** Spawn a pool of [domains] workers (default
    [Domain.recommended_domain_count ()], minimum 1). Domains are an
    OS-level resource: create few pools and {!shutdown} them. *)

val size : t -> int
(** Number of worker domains. *)

val run : t -> (unit -> 'a) list -> 'a list
(** Execute the thunks on the pool and wait for all of them; results are
    returned in submission order. A singleton list runs in the calling
    domain. If any thunk raises, the remaining thunks still run to
    completion and the first exception (in completion order) is re-raised.
    Thunks must not touch mutable state shared with other thunks. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array pool f items] is {!run} over [fun () -> f items.(i)]. *)

val submit : t -> (unit -> unit) -> unit
(** Fire-and-forget enqueue. {!run} is the right call for almost everything;
    [submit] exists for callers managing their own completion signalling.
    @raise Invalid_argument after {!shutdown}. *)

val shutdown : t -> unit
(** Drain outstanding jobs, stop and join every worker. Idempotent. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and always shuts it down. *)
