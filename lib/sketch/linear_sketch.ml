open Ds_util

module type S = sig
  type t

  val family : string
  val dim : t -> int
  val shape : t -> int array
  val clone_zero : t -> t
  val add : t -> t -> unit
  val sub : t -> t -> unit
  val update : t -> index:int -> delta:int -> unit
  val reset : t -> unit
  val space_in_words : t -> int
  val write_body : t -> Wire.sink -> unit
  val read_body : t -> Wire.source -> unit
end

type 'a impl = (module S with type t = 'a)

let magic = "LSK1"

(* Decode/encode telemetry: one counter bump per envelope, never per
   byte (no-ops unless Ds_obs.Metrics is enabled). *)
let m_ser_count = Ds_obs.Metrics.counter "sketch.serialize.count"
let m_ser_bytes = Ds_obs.Metrics.counter "sketch.serialize.bytes"
let m_dec_ok = Ds_obs.Metrics.counter "sketch.decode.ok"
let m_dec_err = Ds_obs.Metrics.counter "sketch.decode.err"

let serialize (type a) ?trace ((module L) : a impl) (t : a) =
  let trace = Option.map (fun { Ds_obs.Trace.trace_id; span_id } -> (trace_id, span_id)) trace in
  let msg =
    Envelope.seal ?trace ~magic (fun sink ->
        Wire.write_tag sink L.family;
        Wire.write_array sink (L.shape t);
        L.write_body t sink)
  in
  Ds_obs.Metrics.incr m_ser_count 1;
  Ds_obs.Metrics.incr m_ser_bytes (String.length msg);
  msg

type error =
  | Envelope of Envelope.error
  | Wrong_family of { expected : string; got : string }
  | Shape_mismatch of { expected : int array; got : int array }

let error_to_string = function
  | Envelope e -> Envelope.error_to_string e
  | Wrong_family { expected; got } ->
      Printf.sprintf "family mismatch: message is %S, receiver is %S" got expected
  | Shape_mismatch { expected; got } ->
      Printf.sprintf "shape mismatch: message [%s], receiver [%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int got)))
        (String.concat ";" (Array.to_list (Array.map string_of_int expected)))

let deserialize_result (type a) ((module L) : a impl) (t : a) data =
  let tracing = Ds_obs.Trace.enabled () in
  let t0 = if tracing then Ds_obs.Clock.now_ns () else 0L in
  let r =
    Envelope.unseal ~magic ~wrap:(fun e -> Envelope e) data (fun src ->
        let got = Wire.read_tag src in
        if got <> L.family then Error (Wrong_family { expected = L.family; got })
        else
          let shape = Wire.read_array src in
          if shape <> L.shape t then Error (Shape_mismatch { expected = L.shape t; got = shape })
          else Ok (L.read_body t src))
  in
  match r with
  | Ok ((), trace) ->
      Ds_obs.Metrics.incr m_dec_ok 1;
      (* The decode span parents under the *sender's* shipping span via
         the carried context, linking the receiving process into the
         coordinator's trace. *)
      (match trace with
      | Some (trace_id, span_id) when tracing ->
          Ds_obs.Trace.record_linked "sketch.decode" { Ds_obs.Trace.trace_id; span_id }
            ~start_ns:t0 ~dur_ns:(Ds_obs.Clock.elapsed_ns t0)
      | _ -> ());
      Ok ()
  | Error _ as e ->
      Ds_obs.Metrics.incr m_dec_err 1;
      e

let deserialize_into impl t data =
  match deserialize_result impl t data with
  | Ok () -> ()
  | Error e -> failwith ("Linear_sketch: " ^ error_to_string e)

let absorb_result (type a) ((module L) as impl : a impl) (t : a) data =
  let scratch = L.clone_zero t in
  match deserialize_result impl scratch data with
  | Ok () -> Ok (L.add t scratch)
  | Error _ as e -> e

let absorb impl t data =
  match absorb_result impl t data with
  | Ok () -> ()
  | Error e -> failwith ("Linear_sketch: " ^ error_to_string e)

module Packed = struct
  type t = T : 'a impl * 'a -> t

  let pack impl v = T (impl, v)
  let family (T ((module L), _)) = L.family
  let dim (T ((module L), v)) = L.dim v
  let shape (T ((module L), v)) = L.shape v
  let space_in_words (T ((module L), v)) = L.space_in_words v
  let update (T ((module L), v)) ~index ~delta = L.update v ~index ~delta
  let reset (T ((module L), v)) = L.reset v
  let clone_zero (T ((module L), v)) = T ((module L), L.clone_zero v)
  let serialize ?trace (T (impl, v)) = serialize ?trace impl v
  let deserialize_result (T (impl, v)) data = deserialize_result impl v data
  let absorb_result (T (impl, v)) data = absorb_result impl v data
end
