(** Crash flight recorder: bounded forensic dumps that survive kill -9.

    Persists the tail of the trace-span ring plus metric, quantile and
    STAT-rollup snapshots as one [flight/v1] JSON document at
    [<dir>/flight-latest.json], written by
    {!Ds_util.Durable.write_atomic} (like {!Checkpoint}) so the file is
    never torn.  The
    server dumps on overload onset, quarantine-on-corruption, every
    checkpoint wave and graceful shutdown; after a kill -9 the last
    dump is what [dynospan serve-stats --post-mortem] replays. *)

type t

val create : dir:string -> t
(** A recorder writing under [dir]. Each dump keeps the newest 256 spans
    and the newest 64 events. *)

val dump : t -> reason:string -> stats:Ds_util.Json.t -> events:string list -> unit
(** Write one dump (atomically replacing the previous one).  [stats] is
    the [serve_stats/v1] rollup; [events] is newest-first, as {!Server}
    keeps it. *)

val dumps : t -> int
(** Dumps written so far by this recorder. *)

val path : dir:string -> string
(** Where the dump lives: [<dir>/flight-latest.json]. *)

val read : dir:string -> (Ds_util.Json.t, string) result
(** Parse the latest dump — the post-mortem entry point.  [Error] unless
    the file holds a JSON object whose ["schema"] is ["flight/v1"]. *)
