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

type t = { f_dir : string; mutable f_seq : int }

let filename = "flight-latest.json"
let path ~dir = Filename.concat dir filename

(* A dump keeps the newest [max_spans] spans and [max_events] events. *)
let max_spans = 256
let max_events = 64
let create ~dir = { f_dir = dir; f_seq = 0 }

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

let dump t ~reason ~stats ~events =
  t.f_seq <- t.f_seq + 1;
  let doc =
    Ds_util.Json.(
      Obj
        [
          ("schema", Str "flight/v1");
          ("seq", int t.f_seq);
          ("reason", Str reason);
          ("pid", int (Unix.getpid ()));
          ("wall_s", Num (Unix.gettimeofday ()));
          ("mono_ns", Int (Ds_obs.Clock.now_ns ()));
          (* Tail of the span ring: the most recent serve.apply/client spans. *)
          ( "spans",
            Arr (List.map Ds_obs.Trace.span_to_json (tail max_spans (Ds_obs.Trace.spans ()))) );
          ("spans_recorded", int (Ds_obs.Trace.recorded ()));
          ("spans_dropped", int (Ds_obs.Trace.dropped ()));
          ("metrics", Ds_obs.Metrics.to_json (Ds_obs.Metrics.snapshot ()));
          ("quantiles", Ds_obs.Quantile.to_json (Ds_obs.Quantile.snapshot ()));
          ("stats", stats);
          (* Newest-first event tail, as kept by the server. *)
          ("events", Arr (List.map (fun e -> Str e) (take max_events events)));
        ])
  in
  Ds_util.Durable.write_atomic ~path:(path ~dir:t.f_dir) (Ds_util.Json.to_string doc)

let read ~dir =
  let p = path ~dir in
  match
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | data -> (
      let schema doc = Option.bind (Ds_util.Json.member "schema" doc) Ds_util.Json.to_str in
      match Ds_util.Json.parse data with
      | Ok doc when schema doc = Some "flight/v1" -> Ok doc
      | Ok _ -> Error (p ^ ": not a flight/v1 document")
      | Error _ as e -> e)
  | exception Sys_error m -> Error m
