(** Reconnecting SRV1 client over a Unix domain socket.

    Every call runs under {!Ds_fault.Supervisor}'s capped exponential
    backoff with multiplicative jitter: transport faults (disconnect,
    poisoned framing) reconnect and {e resync} — ask the server's
    (applied, durable) watermarks, drop what is durable there, re-send
    everything above the applied watermark by linearity — while
    retryable NACKs ([Overloaded]) back off and re-send the same frame.
    Permanent NACKs ([Quota_exceeded], [Bad_seq], [Bad_frame], ...)
    surface immediately as [Error].

    The client keeps, per stream, the suffix of payloads not yet covered
    by a durable generation; that suffix is exactly what a kill -9 can
    lose and exactly what resync can be asked to re-send.  Entries the
    live server has applied but not yet checkpointed stay in the ledger
    without being re-sent, so a reconnect to a lagging server never
    forgets what a later crash could roll back.  The sequence-watermark
    discipline on the server makes every replay idempotent. *)

type t

val connect :
  ?delay_unit:float ->
  ?seed:int ->
  socket_path:string ->
  unit ->
  t
(** Lazy: the socket is dialed on first use.  [delay_unit] converts the
    supervisor's abstract backoff units to seconds (default 0.02);
    [seed] drives the jitter. *)

val close : t -> unit

val create_stream :
  t -> tenant:string -> stream:string -> family:string -> n:int -> seed:int ->
  (int, string) result
(** Returns the sketch's size in words.  Idempotent for an identical
    [(family, n, seed)] triple. *)

val ingest : t -> tenant:string -> stream:string -> payload:string -> (unit, string) result
(** Assigns the next sequence number, retains the payload until a
    durable ack covers it, sends, and retries on the supervisor's schedule. *)

type state = {
  payload : string;  (** full LSK1 envelope of the merged sketch *)
  applied_seq : int;
  copies_total : int;
  copies_lost : int;
  certified_delta : float;  (** surviving-quorum failure probability *)
}

val query : t -> tenant:string -> stream:string -> (state, string) result
val seqs : t -> tenant:string -> stream:string -> (int * int, string) result
(** (applied, durable) watermarks. *)

val flush : t -> tenant:string -> (int, string) result
(** Force a checkpoint; returns the durable generation number. *)

val stats : t -> (int * int * int * int, string) result
(** (tenants, streams, applied frames, words). *)

val stat : t -> (string, string) result
(** The server's full [serve_stats/v1] rollup as one JSON document
    (queue state, totals, NACK taxonomy, ingest latency quantiles and
    the bounded per-tenant section) — the [Stat_rollup] RPC. *)

val retries : t -> int
val reconnects : t -> int
val backoff_total : t -> float
(** Seconds actually slept in backoff. *)

val unacked_count : t -> tenant:string -> stream:string -> int
