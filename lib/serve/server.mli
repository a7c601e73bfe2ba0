(** The multi-tenant sketch service.

    The core is transport-agnostic: {!connect}/{!feed}/{!drain}/
    {!take_output} process SRV1 byte streams against the registry, so
    the deterministic simulator and the test suite drive exactly the
    code the Unix socket loop runs.

    Robustness properties, by mechanism:
    - {b admission control}: [Create] beyond the tenant's word budget is
      refused with a typed [Quota_exceeded] NACK ({!Registry.create_stream});
    - {b backpressure}: the ingest queue is bounded; when full, frames
      get an immediate [Overloaded] NACK naming the depth and bound so
      clients back off instead of timing out;
    - {b durability}: dirty tenants are checkpointed every
      [checkpoint_every] applied frames (write-tmp/fsync/rename, see
      {!Checkpoint}); a kill -9 at any instant loses only the
      acked-but-undurable suffix, which clients re-send by linearity;
    - {b graceful degradation}: AGM copies that fail their envelope
      checksum on recovery are marked lost and queries carry the
      surviving quorum's certified delta. *)

type config = {
  dir : string;  (** checkpoint store root *)
  quota_words : int;  (** per-tenant sketch-space budget *)
  queue_bound : int;  (** ingest queue depth before [Overloaded] *)
  drain_per_tick : int;  (** frames applied per {!drain} call *)
  checkpoint_every : int;
      (** applied frames between generations; each tenant keeps its
          two newest *)
  flight : bool;  (** arm the crash {!Flight} recorder *)
}

val default_config : dir:string -> config

type t
type conn

type recovery_report = {
  r_tenants : int;
  r_streams : int;
  r_quarantined : int;  (** generations + torn tmp files quarantined *)
  r_degraded_copies : int;
  r_ns : int64;
}

val create : config -> t
(** Builds the registry and runs recovery: torn tmp files quarantined,
    then per tenant the newest generation that decodes and loads wins;
    corrupt generations are quarantined (never partially applied) and
    the walk falls back to the next older one. *)

val recovery_report : t -> recovery_report
val registry : t -> Registry.t
val config : t -> config

val events : t -> string list
(** Durability/degradation event log, oldest first — checkpoint writes,
    quarantines, lost copies, dropped connections.  Only the newest 64
    are kept, so a long-running server does not grow its log.  Tests
    assert on exact event counts (e.g. "exactly one quarantine per torn
    file"). *)

val connect : t -> conn

val feed : t -> conn -> string -> unit
(** Feed raw bytes; complete frames are decoded and handled.  Non-ingest
    requests are answered immediately; ingest frames enter the bounded
    queue or are NACKed [Overloaded]. *)

val drain : t -> unit
(** Apply up to [drain_per_tick] queued frames (acks/NACKs written to
    each frame's connection), then checkpoint if the applied-frame
    budget is spent. *)

val take_output : conn -> string
(** Drain the connection's pending response bytes. *)

val pending_depth : t -> int
val checkpoint_now : t -> unit
(** Checkpoint every dirty tenant immediately (also the [Flush] path)
    and flight-dump when armed. *)

val stat_json : t -> Ds_util.Json.t
(** The [serve_stats/v1] rollup answered to [Stat_rollup] requests and
    served at [/stats] on the admin socket: queue/backpressure state,
    totals, NACK taxonomy, ingest latency quantiles (p50/p90/p99/p999)
    and a per-tenant section (words vs quota, streams, watermarks,
    checkpoint lag, per-tenant NACKs and latency) bounded at the 64
    heaviest tenants.  64 distinct tenants are tracked; later arrivals
    share one overflow slot. *)

val run_unix : t -> socket_path:string -> ?admin_path:string -> ?tick:float -> unit -> unit
(** Accept/ingest loop over a Unix domain socket ([Unix.select],
    non-blocking).  SIGTERM/SIGINT request a graceful exit: queued
    frames are drained and checkpointed; only kill -9 loses state.
    [admin_path] opens a second listener inside the same select loop
    speaking minimal HTTP/1.0: [GET /stats] (STAT rollup JSON),
    [/metrics] (Prometheus), [/json] (full [ds_obs/v1] report),
    [/healthz].  A request head longer than 8 KiB is answered
    [431 Request Header Fields Too Large] and the connection closed. *)
