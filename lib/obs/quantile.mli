(** Streaming quantile sketch: fixed-memory sub-bucketed log histogram.

    The only distribution metric in [Ds_obs], used wherever a tail
    estimate is needed (serve ingest latency, loadgen client
    latency).  Each power-of-two octave is refined into 32 equal-width
    sub-buckets, so [estimate] — the midpoint of the nearest-rank cell
    — carries at most [1/64] (~1.6%) relative error at any quantile,
    on any distribution of nonnegative int samples.  Memory is fixed
    (~1.9k cells per shard); cells are pure counts, so merging sketches
    cell-wise is exactly the sketch of the concatenated streams.

    Two flavours:
    - [quantile name]: registered, domain-sharded like
      {!Metrics} (32 rows), gated on {!Metrics.enabled}; appears in
      {!Export} JSON/Prometheus output.
    - [make ()]: anonymous single-row sketch, ungated by default —
      for single-domain callers that always want the numbers. *)

type t

val quantile : string -> t
(** Find-or-create the registered sketch under this name (idempotent,
    like {!Metrics.counter}).  Observation is gated on
    {!Metrics.enabled}. *)

val unregister : string -> unit
(** Drop a registered sketch (its cells survive in callers still
    holding the handle, but it leaves all registry-wide views). *)

val make : ?gated:bool -> unit -> t
(** Anonymous single-row sketch.  [gated] (default [false]) makes
    observation respect {!Metrics.enabled}. *)

val observe : t -> int -> unit
(** Record one sample; negatives clamp to 0.  Lock-free. *)

val estimate : t -> float -> float
(** [estimate t q] is the nearest-rank [q]-quantile (q clamped to
    [0,1]), as the midpoint of its cell: relative error <= 1/64.
    [nan] when empty. *)

val count : t -> int
val sum : t -> int

type summary = {
  s_count : int;
  s_sum : int;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_p999 : float;
}

val summarize : t -> summary
(** One consistent pass over the cells (single snapshot of the totals,
    so the four quantiles agree on [s_count]). *)

val merge_into : into:t -> t -> unit
(** Cell-wise add of [src]'s totals into [into]'s first row: the
    result estimates the concatenation of both streams exactly. *)

val reset : t -> unit

(** {1 Registry-wide views} *)

val snapshot : unit -> (string * summary) list
(** All registered sketches, sorted by name. *)

val reset_all : unit -> unit
(** Zero every registered sketch (registrations persist). *)

val summary_json : summary -> string
(** One JSON object; empty sketches print quantiles as [0]. *)

val to_json : (string * summary) list -> string
(** JSON object keyed by sketch name. *)

val to_prometheus : (string * summary) list -> string
(** Prometheus [summary] exposition ([{quantile="0.99"}] series plus
    [_sum]/[_count]). *)
