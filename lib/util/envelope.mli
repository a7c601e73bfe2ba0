(** The checksummed envelope every versioned binary message shares.

    LSK1 sketches ({!Ds_sketch.Linear_sketch}), TPS1 pass-1 checkpoints
    ({!Ds_core.Two_pass_spanner}) and SRV1 frames ({!Ds_serve.Sframe}) are
    all laid out as

    {v
    tag  MAGIC             format name and version, e.g. "LSK1"
    fields                 the format's own header and body
    tag  TCTX              optional trace-context extension:
    fixed64 trace_id         the sender's trace
    fixed64 span_id          the sender's span
    fixed64 checksum       FNV-1a-64 of every preceding byte
    v}

    and the SCP1 checkpoint generation ({!Ds_serve.Checkpoint}) seals its
    header the same way, minus the extension, before raw parts. This
    module owns that layout: sealing, the length, checksum and magic
    checks, the rule that nothing or exactly one TCTX extension follows
    the fields, and the mapping of reader failures to {!error}. Each
    format keeps only its own header checks.

    Trace contexts cross this interface as [(trace_id, span_id)] pairs. *)

(** Why an envelope was rejected, in the order the checks run. *)
type error =
  | Truncated of { length : int; min_length : int }
      (** shorter than any well-formed envelope *)
  | Checksum_mismatch  (** corrupt or cut short; caught before any field is parsed *)
  | Wrong_magic of { expected : string; got : string }  (** another format *)
  | Malformed_body of string
      (** a field failed to parse despite a valid checksum (forged, or a
          writer bug) *)
  | Trailing_bytes of int
      (** bytes after the fields that are not one well-formed trace
          extension *)

val error_to_string : error -> string

val seal : ?trace:int64 * int64 -> magic:string -> (Wire.sink -> unit) -> string
(** [seal ~magic write] is [tag magic], the fields [write] appends, the
    trace extension when [?trace] is given, and the checksum. Without
    [?trace] the extension is absent, not empty. *)

val unseal :
  magic:string ->
  wrap:(error -> 'e) ->
  string ->
  (Wire.source -> ('a, 'e) result) ->
  ('a * (int64 * int64) option, 'e) result
(** [unseal ~magic ~wrap data read] checks the length and the checksum
    before parsing anything, then the magic, then runs [read] over the
    fields (in place, no copy) and finally requires that nothing or one
    trace extension remains, which it returns. A [Failure] raised by
    [read] — what every {!Wire} reader raises on malformed input — becomes
    [Malformed_body]; envelope errors reach the caller through [wrap], and
    [read]'s own [Error]s pass through unchanged. *)

val unseal_prefix :
  magic:string ->
  wrap:(error -> 'e) ->
  string ->
  (Wire.source -> ('a, 'e) result) ->
  ('a * int, 'e) result
(** The header form: [data] starts with [tag magic], the fields and their
    checksum, and arbitrary bytes follow. The end of the header is only
    known once [read] has parsed it, so here the checksum is verified
    after parsing and before the result is returned. Returns the offset
    of the first byte after the checksum. Errors as {!unseal}. *)
