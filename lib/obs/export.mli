(** One-stop front-end: enable/disable all telemetry and render a
    combined report. *)

val enable : unit -> unit
(** Turn on metrics, tracing and the ledger. *)

val disable : unit -> unit
val active : unit -> bool

val reset : unit -> unit
(** Zero counters, gauges and quantile sketches, clear spans and ledger
    entries. Registrations persist. *)

val report_json : unit -> string
(** [{"schema":"ds_obs/v1","metrics":{..},"quantiles":{..},
     "spans":[..],"spans_dropped":N,"ledger":[..]}] — spans inline as
    objects (same fields as the JSONL export, causal ids included);
    [spans_dropped] counts spans lost to ring wraparound; [quantiles]
    holds one {!Quantile.summary} per registered sketch.  Trailing
    newline included. *)

val write_report : path:string -> unit
(** Write {!report_json} to [path] (truncating). *)

val prometheus : unit -> string
(** Prometheus text format of the current metrics snapshot. *)

val pp_summary : Format.formatter -> unit -> unit
(** Human-oriented digest: non-zero counters, span count (with a
    warning when the ring overwrote spans), and one ledger line per
    entry with the measured constant. *)
