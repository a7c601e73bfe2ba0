(* Crash flight recorder.

   A kill -9 leaves the checkpoint store (durable state) but destroys
   everything the operator actually wants to see afterwards: what the
   server was doing, how deep the queue was, which tenant was being
   applied.  The recorder persists exactly that — the tail of the
   trace-span ring, the metric/quantile snapshots and the live STAT
   rollup — as one JSON document under the checkpoint dir, written
   through the same durable writer as {!Checkpoint} so the file is
   always either the previous complete dump or the new complete dump,
   never torn.

   Dumps are cheap (one bounded buffer + one rename) and are triggered
   on state transitions that precede most incidents: overload onset,
   quarantine-on-corruption at recovery, every checkpoint wave, and
   graceful shutdown.  The dump lives at [<dir>/flight-latest.json] —
   a root-level *file*, deliberately not a subdirectory, because
   {!Checkpoint.tenants} treats every directory under [dir] as a
   tenant store. *)

type t = {
  f_dir : string;
  f_max_spans : int;
  f_max_events : int;
  mutable f_seq : int;
}

let filename = "flight-latest.json"
let path ~dir = Filename.concat dir filename

let create ?(max_spans = 256) ?(max_events = 64) ~dir () =
  { f_dir = dir; f_max_spans = max_spans; f_max_events = max_events; f_seq = 0 }

let dumps t = t.f_seq

(* Last [n] of a list, preserving order. *)
let tail n l =
  let len = List.length l in
  if len <= n then l
  else
    let rec drop k = function _ :: tl when k > 0 -> drop (k - 1) tl | l -> l in
    drop (len - n) l

let take n l =
  let rec go n = function x :: tl when n > 0 -> x :: go (n - 1) tl | _ -> [] in
  go n l

let dump t ~reason ~stats_json ~events =
  t.f_seq <- t.f_seq + 1;
  let b = Buffer.create 8192 in
  Printf.bprintf b
    "{\"schema\":\"flight/v1\",\"seq\":%d,\"reason\":\"%s\",\"pid\":%d,\"wall_s\":%.3f,\"mono_ns\":%Ld,"
    t.f_seq
    (Ds_util.Json.escape reason)
    (Unix.getpid ()) (Unix.gettimeofday ())
    (Ds_obs.Clock.now_ns ());
  (* Tail of the span ring: the most recent serve.apply/client spans. *)
  let spans = tail t.f_max_spans (Ds_obs.Trace.spans ()) in
  Buffer.add_string b "\"spans\":[";
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Ds_obs.Trace.span_to_json sp))
    spans;
  Printf.bprintf b "],\"spans_recorded\":%d,\"spans_dropped\":%d,"
    (Ds_obs.Trace.recorded ())
    (Ds_obs.Trace.dropped ());
  Buffer.add_string b "\"metrics\":";
  Buffer.add_string b (Ds_obs.Metrics.to_json (Ds_obs.Metrics.snapshot ()));
  Buffer.add_string b ",\"quantiles\":";
  Buffer.add_string b (Ds_obs.Quantile.to_json (Ds_obs.Quantile.snapshot ()));
  Buffer.add_string b ",\"stats\":";
  Buffer.add_string b stats_json;
  (* Newest-first event tail, as kept by the server. *)
  Buffer.add_string b ",\"events\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\"%s\"" (Ds_util.Json.escape e))
    (take t.f_max_events events);
  Buffer.add_string b "]}";
  Ds_util.Durable.write_atomic ~path:(path ~dir:t.f_dir) (Buffer.contents b)

let read ~dir =
  let p = path ~dir in
  match
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | data -> Ds_util.Json.parse data
  | exception Sys_error m -> Error m
