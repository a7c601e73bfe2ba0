(** A simulation of the paper's distributed setting (Section 1): the update
    stream is partitioned across [s] servers; each server sketches its shard
    locally using shared seed-derived randomness; at query time the servers
    ship their {e serialized} sketches to a coordinator, which sums them and
    decodes global structure. The simulator accounts bytes on the wire and
    words of state per server, which is the tradeoff (communication vs
    re-streaming) the paper's introduction argues for.

    The simulated primitive is the AGM connectivity stack (the one whose
    serialization is wired end-to-end); the measured quantities generalize
    to every linear sketch in the library.

    Every protocol shards round-robin: update [i] goes to server
    [i mod s]. Linearity makes the split invisible in the coordinator's
    sum, so no other partition is offered. *)

type report = {
  servers : int;
  updates_total : int;
  bytes_per_server : int array;  (** serialized sketch sizes *)
  bytes_total : int;
  words_per_server : int;  (** in-memory sketch state per server *)
  forest_edges : int;
  forest_correct : bool;  (** verified against the offline ground truth *)
}

val run : Ds_util.Prng.t -> n:int -> servers:int -> Ds_stream.Update.t array -> report
(** Shards the stream, sketches per server, serializes, merges at the
    coordinator, extracts the spanning forest and verifies it against the
    offline final graph of the stream. *)

(** {2 Generic shipping}

    The same server → coordinator round-trip for {e any} sketch implementing
    {!Ds_sketch.Linear_sketch.S}: shard the [(index, delta)] stream, sketch
    each shard with a seed-compatible replica, serialize, have the
    coordinator deserialize-and-sum, and check the summed state is
    byte-identical (on the wire) to sketching the whole stream directly. *)

type ship_report = {
  family : string;  (** the sketch family shipped *)
  ship_servers : int;
  ship_updates_total : int;
  ship_bytes_per_server : int array;  (** serialized message sizes *)
  ship_bytes_total : int;
  ship_words_per_server : int;  (** in-memory state per replica *)
  matches_direct : bool;
      (** coordinator's merged state serializes identically to a direct
          single-process sketch of the same stream *)
}

val ship :
  's Ds_sketch.Linear_sketch.impl ->
  make:(unit -> 's) ->
  servers:int ->
  (int * int) array ->
  ship_report
(** [ship impl ~make ~servers updates]: [make] must mint seed-compatible
    replicas (typically from copies of one shared PRNG); it is called once
    per server plus twice at the coordinator (merge target and direct
    ground truth). *)

val ship_families :
  Ds_util.Prng.t ->
  dim:int ->
  servers:int ->
  (int * int) array ->
  ship_report list
(** {!ship} across the library's registered linear-sketch families
    (one-sparse, sparse recovery, count sketch, AMS F2, F0, L0 sampler,
    packed L0, sketch table) with default parameters over a [dim]-length
    vector — experiment E13's full-inventory sweep. *)

(** {2 Supervised (self-healing) runs}

    The same protocol pushed through a deterministically faulted channel
    ({!Ds_fault.Fault_plan}), with a coordinator that validates every
    envelope through the typed decode interface, retries transient faults
    with capped exponential backoff ({!Ds_fault.Supervisor}), deduplicates
    by ledger, recovers crashed servers by re-ingesting their shard trace
    (sound by linearity: the recovered sum is bit-identical to the
    fault-free sum) and, when recovery is forbidden, degrades to decoding
    from the surviving quorum of sketch repetitions with an honestly
    reported failure probability. *)

type supervised_report = {
  sup_servers : int;
  sup_updates_total : int;
  sup_messages : int;  (** distinct (server, repetition) envelopes *)
  sup_attempts : int;  (** send attempts, including faulted ones *)
  sup_faults : int;
  sup_faults_by_kind : (string * int) list;
      (** counts in {!Ds_fault.Fault_plan.kind_names} order *)
  sup_retries : int;
  sup_backoff : float;  (** total simulated waiting, in backoff time units *)
  sup_duplicates_rejected : int;
  sup_decode_errors : int;  (** envelopes rejected by checksum/shape checks *)
  sup_bytes_total : int;  (** bytes that actually crossed the channel *)
  sup_crashed_servers : int list;
  sup_reingested_servers : int list;
  sup_reingested_updates : int;
  sup_recovery_bytes : int;  (** wire cost of re-reading recovered shards *)
  sup_lost_servers : int list;  (** crashed and not recovered *)
  sup_quorum : int;  (** repetitions every server contributed to *)
  sup_copies : int;  (** the sketch's repetition budget *)
  sup_degraded_delta : float;  (** {!Ds_agm.Agm_sketch.certified_delta} of the quorum *)
  sup_forest_edges : int;
  sup_forest_correct : bool;
  sup_merged_hash : int64;
      (** FNV-1a of the coordinator's serialized merged state — equal to the
          fault-free run's hash whenever every shard was merged or recovered *)
}

val run_supervised :
  ?allow_reingest:bool ->
  plan:Ds_fault.Fault_plan.t ->
  Ds_util.Prng.t ->
  n:int ->
  servers:int ->
  Ds_stream.Update.t array ->
  supervised_report
(** Like {!run}, but each server ships every sketch repetition as its own
    checksummed envelope through the faulted channel, so one fault costs one
    repetition. The coordinator retries per {!Ds_fault.Supervisor}'s
    schedule; crashes are sticky per server. With [allow_reingest] (default) missing repetitions are rebuilt
    from the server's shard trace and summed in — under any plan the merged
    state then equals the fault-free state bit for bit. With
    [~allow_reingest:false] a permanently failed server is reported lost and
    decoding falls back to the quorum of fully-merged repetitions, with
    [sup_degraded_delta] certifying what the decode is still worth. Fault
    draws are stateless per (server, message, attempt) coordinate, so the
    report is identical across reruns with an equal-seed plan. *)

val pp_supervised_report : Format.formatter -> supervised_report -> unit
