(** Plain-text stream traces, so real update sequences can be replayed
    through the algorithms and test failures can be shipped as files.

    Format: one update per line, [+ u v] / [- u v]. Lines starting with
    [#] and blank lines are ignored. *)

val save : string -> Update.t array -> unit
(** Written through {!Ds_util.Durable.write_atomic}: a crash leaves the
    old file or the whole new one. *)

val load : string -> Update.t array
(** @raise Failure with the offending line number on malformed input. *)

val to_string : Update.t array -> string
val of_string : string -> Update.t array
