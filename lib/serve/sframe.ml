open Ds_util

type nack =
  | Overloaded of { queue_depth : int; bound : int }
  | Quota_exceeded of { used_words : int; budget_words : int }
  | Unknown_stream
  | Stream_exists
  | Unknown_family of string
  | Bad_seq of { expected : int; got : int }
  | Bad_frame of string

type request =
  | Create of { tenant : string; stream : string; family : string; n : int; seed : int }
  | Ingest of { tenant : string; stream : string; seq : int; payload : string }
  | Query of { tenant : string; stream : string }
  | Seq_query of { tenant : string; stream : string }
  | Flush of { tenant : string }
  | Stats
  | Stat_rollup

type response =
  | Created of { words : int }
  | Ack of { seq : int; durable_seq : int }
  | Nack of { seq : int; reason : nack }
  | State of {
      payload : string;
      applied_seq : int;
      copies_total : int;
      copies_lost : int;
      certified_delta : float;
    }
  | Seqs of { applied_seq : int; durable_seq : int }
  | Flushed of { generation : int }
  | Stats_reply of { tenants : int; streams : int; applied_frames : int; words : int }
  | Stat_rollup_reply of { json : string }

(* Dense taxonomy indexing for the NACK metric counters and the
   per-tenant NACK counts in the STAT rollup. *)
let nack_kinds =
  [|
    "overloaded";
    "quota_exceeded";
    "unknown_stream";
    "stream_exists";
    "unknown_family";
    "bad_seq";
    "bad_frame";
  |]

let nack_index = function
  | Overloaded _ -> 0
  | Quota_exceeded _ -> 1
  | Unknown_stream -> 2
  | Stream_exists -> 3
  | Unknown_family _ -> 4
  | Bad_seq _ -> 5
  | Bad_frame _ -> 6

(* Only overload is transient from the client's point of view (back off,
   re-send the same bytes).  [Bad_frame] is deterministic too: local
   sockets do not corrupt bytes in flight, and the server also emits it
   for validation failures (bad tenant/stream names, absorb dimension
   mismatches), so the identical frame is refused the identical way on
   every attempt. *)
let nack_retryable = function
  | Overloaded _ -> true
  | Bad_frame _ | Quota_exceeded _ | Unknown_stream | Stream_exists | Unknown_family _
  | Bad_seq _ ->
      false

let pp_nack ppf = function
  | Overloaded { queue_depth; bound } ->
      Format.fprintf ppf "overloaded(depth %d/%d)" queue_depth bound
  | Quota_exceeded { used_words; budget_words } ->
      Format.fprintf ppf "quota_exceeded(%d/%d words)" used_words budget_words
  | Unknown_stream -> Format.fprintf ppf "unknown_stream"
  | Stream_exists -> Format.fprintf ppf "stream_exists"
  | Unknown_family f -> Format.fprintf ppf "unknown_family(%s)" f
  | Bad_seq { expected; got } -> Format.fprintf ppf "bad_seq(expected %d, got %d)" expected got
  | Bad_frame m -> Format.fprintf ppf "bad_frame(%s)" m

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

(* Every frame payload is an {!Envelope} with magic SRV1 whose fields
   are a kind number and that kind's fields.  The checksum is verified
   before any field is interpreted, so a corrupted frame is a typed
   decode error, never garbage state.  Requests may carry the envelope's
   trace extension; untraced frames are byte-identical to the format
   before it existed, so old servers and old clients interoperate with
   new peers as long as tracing stays off (the default).  Request kind
   6 and response kind 71 are retired: a frame of either kind is an
   unknown kind, and reusing the numbers would give old peers a
   different meaning. *)

let magic = "SRV1"

let encode_request ?trace r =
  let trace = Option.map (fun { Ds_obs.Trace.trace_id; span_id } -> (trace_id, span_id)) trace in
  Envelope.seal ?trace ~magic @@ fun buf ->
  match r with
  | Create { tenant; stream; family; n; seed } ->
      Wire.write_int buf 1;
      Wire.write_tag buf tenant;
      Wire.write_tag buf stream;
      Wire.write_tag buf family;
      Wire.write_int buf n;
      Wire.write_int buf seed
  | Ingest { tenant; stream; seq; payload } ->
      Wire.write_int buf 2;
      Wire.write_tag buf tenant;
      Wire.write_tag buf stream;
      Wire.write_int buf seq;
      Wire.write_tag buf payload
  | Query { tenant; stream } ->
      Wire.write_int buf 3;
      Wire.write_tag buf tenant;
      Wire.write_tag buf stream
  | Seq_query { tenant; stream } ->
      Wire.write_int buf 4;
      Wire.write_tag buf tenant;
      Wire.write_tag buf stream
  | Flush { tenant } ->
      Wire.write_int buf 5;
      Wire.write_tag buf tenant
  | Stats -> Wire.write_int buf 7
  | Stat_rollup -> Wire.write_int buf 8

let encode_nack buf = function
  | Overloaded { queue_depth; bound } ->
      Wire.write_int buf 1;
      Wire.write_int buf queue_depth;
      Wire.write_int buf bound
  | Quota_exceeded { used_words; budget_words } ->
      Wire.write_int buf 2;
      Wire.write_int buf used_words;
      Wire.write_int buf budget_words
  | Unknown_stream -> Wire.write_int buf 3
  | Stream_exists -> Wire.write_int buf 4
  | Unknown_family f ->
      Wire.write_int buf 5;
      Wire.write_tag buf f
  | Bad_seq { expected; got } ->
      Wire.write_int buf 6;
      Wire.write_int buf expected;
      Wire.write_int buf got
  | Bad_frame m ->
      Wire.write_int buf 7;
      Wire.write_tag buf m

let encode_response r =
  Envelope.seal ~magic @@ fun buf ->
  match r with
  | Created { words } ->
      Wire.write_int buf 64;
      Wire.write_int buf words
  | Ack { seq; durable_seq } ->
      Wire.write_int buf 65;
      Wire.write_int buf seq;
      Wire.write_int buf durable_seq
  | Nack { seq; reason } ->
      Wire.write_int buf 66;
      Wire.write_int buf seq;
      encode_nack buf reason
  | State { payload; applied_seq; copies_total; copies_lost; certified_delta } ->
      Wire.write_int buf 67;
      Wire.write_tag buf payload;
      Wire.write_int buf applied_seq;
      Wire.write_int buf copies_total;
      Wire.write_int buf copies_lost;
      Wire.write_fixed64 buf (Int64.bits_of_float certified_delta)
  | Seqs { applied_seq; durable_seq } ->
      Wire.write_int buf 68;
      Wire.write_int buf applied_seq;
      Wire.write_int buf durable_seq
  | Flushed { generation } ->
      Wire.write_int buf 69;
      Wire.write_int buf generation
  | Stats_reply { tenants; streams; applied_frames; words } ->
      Wire.write_int buf 70;
      Wire.write_int buf tenants;
      Wire.write_int buf streams;
      Wire.write_int buf applied_frames;
      Wire.write_int buf words
  | Stat_rollup_reply { json } ->
      Wire.write_int buf 72;
      Wire.write_tag buf json

(* String errors: a bad frame becomes a [Bad_frame] NACK or a dropped
   connection, never a branch. *)
let decode read msg =
  Envelope.unseal ~magic ~wrap:Envelope.error_to_string msg (fun src -> Ok (read src))

let read_request src =
  match Wire.read_int src with
  | 1 ->
      let tenant = Wire.read_tag src in
      let stream = Wire.read_tag src in
      let family = Wire.read_tag src in
      let n = Wire.read_int src in
      let seed = Wire.read_int src in
      Create { tenant; stream; family; n; seed }
  | 2 ->
      let tenant = Wire.read_tag src in
      let stream = Wire.read_tag src in
      let seq = Wire.read_int src in
      let payload = Wire.read_tag src in
      Ingest { tenant; stream; seq; payload }
  | 3 ->
      let tenant = Wire.read_tag src in
      let stream = Wire.read_tag src in
      Query { tenant; stream }
  | 4 ->
      let tenant = Wire.read_tag src in
      let stream = Wire.read_tag src in
      Seq_query { tenant; stream }
  | 5 -> Flush { tenant = Wire.read_tag src }
  | 7 -> Stats
  | 8 -> Stat_rollup
  | k -> failwith (Printf.sprintf "unknown request kind %d" k)

let decode_request_traced msg =
  Result.map
    (fun (req, trace) ->
      (req, Option.map (fun (trace_id, span_id) -> { Ds_obs.Trace.trace_id; span_id }) trace))
    (decode read_request msg)

let decode_request msg = Result.map fst (decode read_request msg)

let decode_nack src =
  match Wire.read_int src with
  | 1 ->
      let queue_depth = Wire.read_int src in
      let bound = Wire.read_int src in
      Overloaded { queue_depth; bound }
  | 2 ->
      let used_words = Wire.read_int src in
      let budget_words = Wire.read_int src in
      Quota_exceeded { used_words; budget_words }
  | 3 -> Unknown_stream
  | 4 -> Stream_exists
  | 5 -> Unknown_family (Wire.read_tag src)
  | 6 ->
      let expected = Wire.read_int src in
      let got = Wire.read_int src in
      Bad_seq { expected; got }
  | 7 -> Bad_frame (Wire.read_tag src)
  | k -> failwith (Printf.sprintf "unknown nack kind %d" k)

let read_response src =
  match Wire.read_int src with
  | 64 -> Created { words = Wire.read_int src }
  | 65 ->
      let seq = Wire.read_int src in
      let durable_seq = Wire.read_int src in
      Ack { seq; durable_seq }
  | 66 ->
      let seq = Wire.read_int src in
      let reason = decode_nack src in
      Nack { seq; reason }
  | 67 ->
      let payload = Wire.read_tag src in
      let applied_seq = Wire.read_int src in
      let copies_total = Wire.read_int src in
      let copies_lost = Wire.read_int src in
      let certified_delta = Int64.float_of_bits (Wire.read_fixed64 src) in
      State { payload; applied_seq; copies_total; copies_lost; certified_delta }
  | 68 ->
      let applied_seq = Wire.read_int src in
      let durable_seq = Wire.read_int src in
      Seqs { applied_seq; durable_seq }
  | 69 -> Flushed { generation = Wire.read_int src }
  | 70 ->
      let tenants = Wire.read_int src in
      let streams = Wire.read_int src in
      let applied_frames = Wire.read_int src in
      let words = Wire.read_int src in
      Stats_reply { tenants; streams; applied_frames; words }
  | 72 -> Stat_rollup_reply { json = Wire.read_tag src }
  | k -> failwith (Printf.sprintf "unknown response kind %d" k)

let decode_response msg = Result.map fst (decode read_response msg)

let frame msg =
  let buf = Buffer.create (String.length msg + 4) in
  Wire.write_frame buf msg;
  Buffer.contents buf
