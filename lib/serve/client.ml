open Ds_util
open Ds_fault

(* Per-stream client-side ledger: the next sequence number to assign and
   the acked-but-not-yet-durable suffix of payloads.  After a server
   kill -9 the recovered registry sits at the durable watermark; the
   client learns it with [Seq_query] and re-sends exactly this suffix —
   re-ingest by linearity. *)
type entry = {
  mutable next_seq : int;
  unacked : (int, string) Hashtbl.t;
  (* (family, n, seed) once [create_stream] succeeded: enough to
     re-register the stream if the server loses it entirely (killed
     before its first checkpoint ever landed). *)
  mutable spec : (string * int * int) option;
}

type t = {
  socket_path : string;
  delay_unit : float;
  rng : Prng.t;
  mutable fd : Unix.file_descr option;
  mutable reader : Frame_reader.t;
  streams : (string * string, entry) Hashtbl.t;
  mutable retries : int;
  mutable reconnects : int;
  mutable backoff_total : float;
}

let connect ?(delay_unit = 0.02) ?(seed = 0xC11E57) ~socket_path () =
  (* A write to a socket whose server died must surface as EPIPE (a
     transport error we reconnect from), not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  {
    socket_path;
    delay_unit;
    rng = Prng.create seed;
    fd = None;
    reader = Frame_reader.create ();
    streams = Hashtbl.create 8;
    retries = 0;
    reconnects = 0;
    backoff_total = 0.0;
  }

let retries t = t.retries
let reconnects t = t.reconnects
let backoff_total t = t.backoff_total

let close t =
  match t.fd with
  | Some fd ->
      t.fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

(* Capped exponential backoff on the supervisor's schedule, with
   multiplicative jitter in [0.5, 1.0) so a herd of clients NACKed in
   the same tick does not retry in the same tick. *)
let backoff t ~attempt =
  let units = Supervisor.delay_before ~attempt in
  let d = units *. t.delay_unit *. (0.5 +. Prng.float t.rng 0.5) in
  if d > 0.0 then begin
    t.backoff_total <- t.backoff_total +. d;
    Unix.sleepf d
  end

let entry t ~tenant ~stream =
  let key = (tenant, stream) in
  match Hashtbl.find_opt t.streams key with
  | Some e -> e
  | None ->
      let e = { next_seq = 1; unacked = Hashtbl.create 16; spec = None } in
      Hashtbl.replace t.streams key e;
      e

exception Transport of string

let transport fmt = Printf.ksprintf (fun m -> raise (Transport m)) fmt

let send fd msg =
  let framed = Sframe.frame msg in
  let len = String.length framed in
  let rec go pos =
    if pos < len then
      match Unix.write_substring fd framed pos (len - pos) with
      | 0 -> transport "write returned 0"
      | n -> go (pos + n)
      | exception Unix.Unix_error (e, _, _) -> transport "write: %s" (Unix.error_message e)
  in
  go 0

let recv t fd =
  let buf = Bytes.create 65536 in
  let rec go () =
    match Frame_reader.next t.reader with
    | Error e -> transport "framing: %s" (Wire.frame_error_to_string e)
    | Ok (Some payload) -> (
        match Sframe.decode_response payload with
        | Ok r -> r
        | Error m -> transport "decode: %s" m)
    | Ok None -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> transport "connection closed by server"
        | n ->
            Frame_reader.feed t.reader (Bytes.sub_string buf 0 n);
            go ()
        | exception Unix.Unix_error (e, _, _) -> transport "read: %s" (Unix.error_message e))
  in
  go ()

let dial t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX t.socket_path) with
  | () ->
      t.fd <- Some fd;
      t.reader <- Frame_reader.create ();
      fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      transport "connect %s: %s" t.socket_path (Unix.error_message e)

let rpc_on ?trace fd t req =
  send fd (Sframe.encode_request ?trace req);
  recv t fd

(* Resynchronise one stream after reconnecting: ask the server where its
   watermarks are, drop what is already durable there, replay everything
   above what it has applied, in order.  Entries in
   (durable_seq, applied_seq] are neither dropped nor re-sent: the live
   server holds them, so re-sending only draws duplicate acks, but a
   later kill -9 can still roll the server back below them — the ledger
   must keep them until a durable ack covers them.  Replayed frames the
   server already applied are absorbed as idempotent duplicates. *)
let resync_stream t fd (tenant, stream) e =
  let replay ~applied_seq ~durable_seq =
    let pending =
      Hashtbl.fold (fun seq payload acc -> (seq, payload) :: acc) e.unacked []
      |> List.sort compare
    in
    List.iter
      (fun (seq, payload) ->
        if seq <= durable_seq then Hashtbl.remove e.unacked seq
        else if seq > applied_seq then
          match rpc_on fd t (Sframe.Ingest { tenant; stream; seq; payload }) with
          | Sframe.Ack { seq = s; durable_seq } ->
              if s <> seq then transport "resync: ack for %d, expected %d" s seq;
              Hashtbl.iter
                (fun k _ -> if k <= durable_seq then Hashtbl.remove e.unacked k)
                (Hashtbl.copy e.unacked)
          | Sframe.Nack { reason; _ } ->
              transport "resync: %s" (Format.asprintf "%a" Sframe.pp_nack reason)
          | _ -> transport "resync: unexpected response")
      pending;
    if e.next_seq <= applied_seq then e.next_seq <- applied_seq + 1
  in
  match rpc_on fd t (Sframe.Seq_query { tenant; stream }) with
  | Sframe.Seqs { applied_seq; durable_seq } -> replay ~applied_seq ~durable_seq
  | Sframe.Nack { reason = Sframe.Unknown_stream; _ } -> (
      (* The server lost every generation for this stream — killed before
         its first checkpoint ever landed.  Then nothing was ever durable,
         so nothing was ever pruned from the unacked ledger: it holds the
         complete history and we can re-register and replay from seq 1. *)
      match e.spec with
      | Some (family, n, seed) -> (
          match rpc_on fd t (Sframe.Create { tenant; stream; family; n; seed }) with
          | Sframe.Created _ -> replay ~applied_seq:0 ~durable_seq:0
          | Sframe.Nack { reason; _ } ->
              transport "resync create: %s" (Format.asprintf "%a" Sframe.pp_nack reason)
          | _ -> transport "resync create: unexpected response")
      | None ->
          (* Never created through this client; the caller's own create
             re-registers it and the suffix replays then. *)
          ())
  | Sframe.Nack { reason; _ } ->
      transport "resync: %s" (Format.asprintf "%a" Sframe.pp_nack reason)
  | _ -> transport "resync: unexpected response"

let ensure_conn t =
  match t.fd with
  | Some fd -> fd
  | None ->
      let fd = dial t in
      t.reconnects <- t.reconnects + 1;
      Hashtbl.iter (fun key e -> resync_stream t fd key e) t.streams;
      fd

(* Run one request with the supervisor's retry envelope: transport
   faults reconnect-and-resync, retryable NACKs ([Overloaded]) back off
   and re-send.  Permanent NACKs surface immediately — retrying them
   cannot succeed. *)
let with_retries t f =
  let rec go attempt =
    let outcome =
      match
        let fd = ensure_conn t in
        f fd
      with
      | r -> r
      | exception Transport m ->
          close t;
          Error (`Transient m)
    in
    match outcome with
    | Ok v -> Ok v
    | Error (`Permanent m) -> Error m
    | Error (`Transient m) ->
        if attempt + 1 >= Supervisor.max_attempts then Error m
        else begin
          t.retries <- t.retries + 1;
          backoff t ~attempt:(attempt + 1);
          go (attempt + 1)
        end
  in
  go 0

let nack_error reason =
  let m = Format.asprintf "%a" Sframe.pp_nack reason in
  if Sframe.nack_retryable reason then Error (`Transient m) else Error (`Permanent m)

let create_stream t ~tenant ~stream ~family ~n ~seed =
  let e = entry t ~tenant ~stream in
  with_retries t (fun fd ->
      match rpc_on fd t (Sframe.Create { tenant; stream; family; n; seed }) with
      | Sframe.Created { words } ->
          e.spec <- Some (family, n, seed);
          Ok words
      | Sframe.Nack { reason; _ } -> nack_error reason
      | _ -> Error (`Transient "unexpected response to create"))

let ingest t ~tenant ~stream ~payload =
  let e = entry t ~tenant ~stream in
  let seq = e.next_seq in
  e.next_seq <- seq + 1;
  Hashtbl.replace e.unacked seq payload;
  with_retries t (fun fd ->
      match
        (* When tracing is on, the frame carries this send span's
           context (TCTX) so the server's serve.apply span parents
           under it — one causal trace across both processes.  With
           tracing off, [current_context] is [None] and the bytes are
           the PR 8 wire format exactly. *)
        Ds_obs.Trace.with_span "client.send" (fun () ->
            rpc_on
              ?trace:(Ds_obs.Trace.current_context ())
              fd t
              (Sframe.Ingest { tenant; stream; seq; payload }))
      with
      | Sframe.Ack { durable_seq; _ } ->
          Hashtbl.iter
            (fun k _ -> if k <= durable_seq then Hashtbl.remove e.unacked k)
            (Hashtbl.copy e.unacked);
          Ok ()
      | Sframe.Nack { reason = Sframe.Bad_seq { expected; _ }; _ } when expected <= seq ->
          (* The server is behind us (it recovered mid-conversation); a
             resync on the next attempt replays the gap. *)
          close t;
          Error (`Transient "server behind client watermark")
      | Sframe.Nack { reason; _ } -> nack_error reason
      | _ -> Error (`Transient "unexpected response to ingest"))

type state = {
  payload : string;
  applied_seq : int;
  copies_total : int;
  copies_lost : int;
  certified_delta : float;
}

let query t ~tenant ~stream =
  with_retries t (fun fd ->
      match rpc_on fd t (Sframe.Query { tenant; stream }) with
      | Sframe.State { payload; applied_seq; copies_total; copies_lost; certified_delta } ->
          Ok { payload; applied_seq; copies_total; copies_lost; certified_delta }
      | Sframe.Nack { reason; _ } -> nack_error reason
      | _ -> Error (`Transient "unexpected response to query"))

let seqs t ~tenant ~stream =
  with_retries t (fun fd ->
      match rpc_on fd t (Sframe.Seq_query { tenant; stream }) with
      | Sframe.Seqs { applied_seq; durable_seq } -> Ok (applied_seq, durable_seq)
      | Sframe.Nack { reason; _ } -> nack_error reason
      | _ -> Error (`Transient "unexpected response to seq query"))

let flush t ~tenant =
  with_retries t (fun fd ->
      match rpc_on fd t (Sframe.Flush { tenant }) with
      | Sframe.Flushed { generation } -> Ok generation
      | Sframe.Nack { reason; _ } -> nack_error reason
      | _ -> Error (`Transient "unexpected response to flush"))

let stats t =
  with_retries t (fun fd ->
      match rpc_on fd t Sframe.Stats with
      | Sframe.Stats_reply { tenants; streams; applied_frames; words } ->
          Ok (tenants, streams, applied_frames, words)
      | Sframe.Nack { reason; _ } -> nack_error reason
      | _ -> Error (`Transient "unexpected response to stats"))

let stat t =
  with_retries t (fun fd ->
      match rpc_on fd t Sframe.Stat_rollup with
      | Sframe.Stat_rollup_reply { json } -> Ok json
      | Sframe.Nack { reason; _ } -> nack_error reason
      | _ -> Error (`Transient "unexpected response to stat"))

let unacked_count t ~tenant ~stream =
  match Hashtbl.find_opt t.streams (tenant, stream) with
  | Some e -> Hashtbl.length e.unacked
  | None -> 0
