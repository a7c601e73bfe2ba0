type error =
  | Truncated of { length : int; min_length : int }
  | Checksum_mismatch
  | Wrong_magic of { expected : string; got : string }
  | Malformed_body of string
  | Trailing_bytes of int

let error_to_string = function
  | Truncated { length; min_length } ->
      Printf.sprintf "truncated message (%d bytes, need at least %d)" length min_length
  | Checksum_mismatch -> "checksum mismatch (corrupt or truncated message)"
  | Wrong_magic { expected; got } -> Printf.sprintf "bad magic %S (expected %S)" got expected
  | Malformed_body msg -> Printf.sprintf "malformed body (%s)" msg
  | Trailing_bytes n -> Printf.sprintf "%d trailing bytes after the body" n

(* The trace-context extension goes after the fields and inside the
   checksum, so damage to it is caught like damage to the counters.  It
   is strictly additive: an envelope sealed without it is byte-identical
   to one from a writer that predates it. *)
let trace_tag = "TCTX"
let checksum_bytes = 8

let seal ?trace ~magic write =
  let buf = Wire.sink () in
  Wire.write_tag buf magic;
  write buf;
  (match trace with
  | Some (trace_id, span_id) ->
      Wire.write_tag buf trace_tag;
      Wire.write_fixed64 buf trace_id;
      Wire.write_fixed64 buf span_id
  | None -> ());
  Wire.write_fixed64 buf (Wire.fnv1a64 (Wire.contents buf));
  Wire.contents buf

(* The shortest envelope: the magic tag, one byte of fields, the checksum. *)
let min_length magic = String.length magic + 2 + checksum_bytes
let ( let* ) = Result.bind

let guard ~wrap read src =
  match read src with r -> r | exception Failure m -> Error (wrap (Malformed_body m))

let check_magic ~magic ~wrap src =
  match Wire.read_tag src with
  | got when got = magic -> Ok ()
  | got -> Error (wrap (Wrong_magic { expected = magic; got }))
  | exception Failure m -> Error (wrap (Malformed_body m))

let extension ~wrap src =
  match Wire.remaining src with
  | 0 -> Ok None
  | n -> (
      match Wire.read_tag src with
      | tag when tag = trace_tag && Wire.remaining src = 16 ->
          let trace_id = Wire.read_fixed64 src in
          let span_id = Wire.read_fixed64 src in
          Ok (Some (trace_id, span_id))
      | _ | (exception Failure _) -> Error (wrap (Trailing_bytes n)))

let check_length ~magic ~wrap data =
  let length = String.length data and min_length = min_length magic in
  if length < min_length then Error (wrap (Truncated { length; min_length })) else Ok length

(* Integrity first: no field is parsed (and no destination touched)
   unless the bytes are exactly what some writer sealed.  The checksum is
   located from the length alone, so truncation cannot move it. *)
let unseal ~magic ~wrap data read =
  let* length = check_length ~magic ~wrap data in
  let len = length - checksum_bytes in
  if Wire.fnv1a64 ~len data <> Wire.read_fixed64 (Wire.source ~pos:len data) then
    Error (wrap Checksum_mismatch)
  else
    let src = Wire.source ~len data in
    let* () = check_magic ~magic ~wrap src in
    let* v = guard ~wrap read src in
    let* trace = extension ~wrap src in
    Ok (v, trace)

let unseal_prefix ~magic ~wrap data read =
  let* length = check_length ~magic ~wrap data in
  let src = Wire.source data in
  let* () = check_magic ~magic ~wrap src in
  let* v = guard ~wrap read src in
  let len = length - Wire.remaining src in
  match Wire.read_fixed64 src with
  | stored when stored = Wire.fnv1a64 ~len data -> Ok (v, len + checksum_bytes)
  | _ -> Error (wrap Checksum_mismatch)
  | exception Failure _ ->
      Error (wrap (Truncated { length; min_length = len + checksum_bytes }))
