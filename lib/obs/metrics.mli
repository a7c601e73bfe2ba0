(** Metrics registry: counters and gauges.

    Design constraints (see DESIGN.md section 8):

    - {b cheap when disabled}: every hot-path operation is a single load
      of one [bool Atomic.t] followed by a conditional branch; no
      allocation, no locking.
    - {b domain-safe}: each counter and gauge is one [int Atomic.t].
      Increments are [fetch_and_add], so totals are exact whichever
      domains write, and snapshots of a quiesced registry are
      deterministic.  No pool job writes a metric, so the cells are not
      sharded by domain.
    - {b stable identity}: [counter name] returns the same cell for
      the same name for the lifetime of the process; re-registration is
      idempotent.  Names must be unique across metric kinds.

    Gauges are last-writer-wins single cells: exact under quiesced
    reads, racy (but never torn) under concurrent writers. *)

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
(** [incr c n] adds [n] to [c].  No-op when disabled. *)

val set : gauge -> int -> unit
(** Last-writer-wins store.  No-op when disabled. *)

val value : counter -> int

(** {1 Snapshots} *)

type snapshot = { counters : (string * int) list; gauges : (string * int) list }
(** Both lists sorted by name; taken under the registry lock. *)

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every registered metric (registrations themselves persist). *)

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
