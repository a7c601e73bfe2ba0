(** Crash-atomic file replacement: the one durable writer.

    A crash at any instant during {!write_atomic} leaves either the old
    file untouched — plus, possibly, a whole or torn [<path>.tmp] that
    readers must ignore — or the new file fully durable. No reader can
    ever see a half-written [path]. *)

val write_atomic : path:string -> string -> unit
(** [write_atomic ~path data] creates [path]'s missing parent directories,
    writes [data] to [path ^ ".tmp"] (looping on partial writes and
    [EINTR]), fsyncs it, renames it over [path] and fsyncs the directory.
    @raise Unix.Unix_error if the file cannot be written or renamed;
    [path] is then unchanged. *)
