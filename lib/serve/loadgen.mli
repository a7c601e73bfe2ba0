(** Seeded load generator for the serve layer.

    The whole workload — tenants, streams, Zipf-profiled stream sizes,
    per-stream update sequences, batch envelopes — is a pure function of
    one seed.  That purity is the verification story: after any crash or
    chaos run, [verify] rebuilds the mirror sketches from the seed alone
    and demands the server's envelopes be {e bit-identical} at the acked
    watermark recorded in the ledger. *)

type stream_spec = {
  l_tenant : string;
  l_stream : string;
  l_family : string;
  l_n : int;
  l_seed : int;
  l_updates : (int * int) array;
  l_batch : int;
}

type plan = { p_seed : int; p_specs : stream_spec list }

val make :
  ?families:string list ->
  ?zipf:float ->
  seed:int ->
  tenants:int ->
  streams_per_tenant:int ->
  updates:int ->
  n:int ->
  batch:int ->
  unit ->
  plan
(** Rank-r stream receives [1/r^zipf] of the update budget (min one
    batch); families cycle through {!Families.names}. *)

val frame_count : stream_spec -> int
val batches : stream_spec -> string list
(** One LSK1 envelope per ingest frame (a batch of updates sketched into
    a scratch sketch — the server folds them in by linearity). *)

val expected_envelope : ?frames:int -> stream_spec -> string
(** Mirror envelope after the first [frames] batches (default: all). *)

val ledger_line : stream_spec -> acked:int -> string
(** [tenant stream acked fnv1a64-of-expected-envelope], the line
    {!run} appends after every ack and {!verify} reads back. *)

type outcome = {
  o_acked_frames : int;
  o_failed_frames : int;
  o_retries : int;
  o_reconnects : int;
  o_backoff : float;
  o_lat : Ds_obs.Quantile.summary;
      (** client-observed wall time per acked ingest RPC, in ns *)
}

val run : Client.t -> plan -> ledger:out_channel option -> outcome
(** Round-robin the plan's batches across streams (so backpressure is
    exercised), appending a ledger line after every ack. *)

val verify : Client.t -> plan -> ledger_lines:string list -> int * string list
(** (streams checked, mismatch descriptions — empty means every acked
    update survived, bit-identically). *)
