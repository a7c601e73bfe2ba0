(** Metrics registry: counters and gauges.

    Design constraints (see DESIGN.md section 8):

    - {b cheap when disabled}: every hot-path operation is a single load
      of one [bool Atomic.t] followed by a conditional branch; no
      allocation, no locking.
    - {b domain-safe}: counters are sharded across a fixed array of
      atomic cells indexed by [Domain.self () land (shards - 1)].  Writers never contend on a cache line unless two
      domains alias the same shard; readers sum the shards at snapshot
      time.  Totals are exact (every increment lands in exactly one
      shard), so snapshots of a quiesced registry are deterministic.
    - {b stable identity}: [counter name] returns the same cell set for
      the same name for the lifetime of the process; re-registration is
      idempotent.  Names must be unique across metric kinds.

    Gauges are last-writer-wins single cells: exact under quiesced
    reads, racy (but never torn) under concurrent writers. *)

val shards : int
(** Number of per-domain shards (a power of two). *)

(** {1 Global switch} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Metric kinds} *)

type counter
type gauge

val counter : string -> counter
(** Find-or-create the counter registered under this name.
    @raise Invalid_argument if the name is registered as another kind. *)

val gauge : string -> gauge

val incr : counter -> int -> unit
(** [incr c n] adds [n] to the calling domain's shard of [c].  No-op
    when disabled. *)

val set : gauge -> int -> unit
(** Last-writer-wins store.  No-op when disabled. *)

val value : counter -> int
(** Sum over all shards. *)

val gauge_value : gauge -> int

(** {1 Snapshots} *)

type snapshot = { counters : (string * int) list; gauges : (string * int) list }
(** Both lists sorted by name; taken under the registry lock. *)

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every registered metric (registrations themselves persist). *)

val unregister : string -> unit
(** Remove a metric from the registry entirely: it stops appearing in
    snapshots and exports.  Callers still holding the handle can keep
    writing to its (now orphaned) cells; a later re-registration under
    the same name creates fresh cells.  Exists so unbounded name
    spaces (per-tenant gauges) can evict cold entries. *)

val sanitize : string -> string
(** Prometheus-legal metric name: out-of-charset bytes become ['_'],
    a leading digit gets a ['_'] prefix. *)

(** {1 Exporters} *)

val to_json : snapshot -> Ds_util.Json.t
(** One JSON object [{"counters":{..},"gauges":{..}}], keys in sorted
    order. *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition format.  Metric names are sanitised
    ([.] and [-] become [_]). *)
