(** SRV1: the serving layer's frame protocol.

    Clients speak length-prefixed frames ({!Ds_util.Wire.write_frame} /
    {!Frame_reader}) whose payloads are {!Ds_util.Envelope}s with magic
    [SRV1] and fields [kind . kind's fields]. The checksum is verified
    before any field is parsed, as for every envelope — a damaged frame is
    a decode error, never garbage state.

    Sketch payloads inside [Ingest] and [State] are ordinary LSK1
    envelopes ({!Ds_sketch.Linear_sketch}): the server absorbs ingests by
    linearity, so a client batch is just a serialized delta sketch. *)

(** Why a request was refused. *)
type nack =
  | Overloaded of { queue_depth : int; bound : int }
      (** bounded ingest queue full — back off and re-send *)
  | Quota_exceeded of { used_words : int; budget_words : int }
      (** per-tenant space budget would be exceeded *)
  | Unknown_stream
  | Stream_exists  (** create with different parameters than the live stream *)
  | Unknown_family of string
  | Bad_seq of { expected : int; got : int }
      (** sequence gap — the client must rewind to [expected] *)
  | Bad_frame of string
      (** payload failed to decode or validate (bad names, dimension
          mismatch) — deterministic, not retryable *)

type request =
  | Create of { tenant : string; stream : string; family : string; n : int; seed : int }
  | Ingest of { tenant : string; stream : string; seq : int; payload : string }
      (** [payload] is an LSK1 envelope of the client's batch delta;
          [seq] counts from 1 per stream, contiguous *)
  | Query of { tenant : string; stream : string }
  | Seq_query of { tenant : string; stream : string }
  | Flush of { tenant : string }  (** force a durable checkpoint now *)
  | Stats
  | Stat_rollup
      (** live observability rollup: per-tenant words vs quota,
          checkpoint lag, NACK taxonomy and ingest latency quantiles as
          one [serve_stats/v1] JSON document.  Strictly additive (kind
          8): old servers answer it with a decode error, old clients
          never send it. *)

type response =
  | Created of { words : int }
  | Ack of { seq : int; durable_seq : int }
      (** applied (or idempotently re-acked); durable up to [durable_seq] *)
  | Nack of { seq : int; reason : nack }  (** [seq = -1] for non-ingest *)
  | State of {
      payload : string;  (** LSK1 envelope of the stream's full sketch *)
      applied_seq : int;
      copies_total : int;  (** AGM repetitions; 1 for scalar families *)
      copies_lost : int;
      certified_delta : float;
          (** decode failure probability certified by the surviving
              quorum ({!Ds_agm.Agm_sketch.certified_delta}); 0 for
              scalar families *)
    }
  | Seqs of { applied_seq : int; durable_seq : int }
  | Flushed of { generation : int }
  | Stats_reply of { tenants : int; streams : int; applied_frames : int; words : int }
  | Stat_rollup_reply of { json : string }
      (** the [serve_stats/v1] document ({!Server.stat_json}) *)

val nack_kinds : string array
(** All stable lowercase kind names, indexed by {!nack_index} — the
    dense taxonomy keying the NACK metric counters and the per-tenant
    NACK counts in the STAT rollup. *)

val nack_index : nack -> int
(** The position of the reason's kind name in {!nack_kinds}. *)

val nack_retryable : nack -> bool
(** Whether re-sending the same frame after backoff can succeed. *)

val pp_nack : Format.formatter -> nack -> unit

val encode_request : ?trace:Ds_obs.Trace.context -> request -> string
(** [?trace] adds the envelope's strictly-additive trace extension so
    the server can link its [serve.apply] span under the client's send
    span.  Without it the bytes are identical to the untraced format,
    which old servers require. *)

val decode_request : string -> (request, string) result
(** Accepts traced and untraced frames alike, dropping the context. *)

val decode_request_traced :
  string -> (request * Ds_obs.Trace.context option, string) result

val encode_response : response -> string
val decode_response : string -> (response, string) result

val frame : string -> string
(** Wrap an encoded message in its 4-byte length prefix — the exact bytes
    written to the socket. *)
