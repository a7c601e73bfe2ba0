(** Incremental reader for length-prefixed frames.

    Accumulates raw socket bytes and yields complete frame payloads. The
    4-byte header is validated with {!Ds_util.Wire.decode_frame_length}
    {e before} any payload space is reserved, so a hostile 8-byte header
    (negative or absurdly large length) produces a typed error instead of
    an allocation — the connection must then be dropped, because a
    length-prefixed stream cannot resynchronise.

    Fuzzed in [test/test_serve.ml]: random bytes and truncated prefixes
    never raise, never allocate beyond [max_frame] + one header, and
    either yield frames or park the reader in a typed failed state. *)

type t

val max_frame : int
(** The payload length ceiling, 16 MiB — far above any SRV1 frame the
    serving layer emits, far below an OOM. *)

val create : unit -> t

val feed : t -> string -> unit
(** Append bytes from the transport. Ignored after a header failure. *)

val next : t -> (string option, Ds_util.Wire.frame_error) result
(** [Ok (Some payload)] — one complete frame, consumed; [Ok None] — need
    more bytes; [Error _] — poisoned header, drop the connection. Repeated
    calls after an error return the same error. *)

val buffered : t -> int
(** Bytes held but not yet returned (partial frame + unread headers). *)

val failed : t -> Ds_util.Wire.frame_error option
(** The poisoned state, if any. *)
