let enable () =
  Metrics.set_enabled true;
  Trace.set_enabled true

let disable () =
  Metrics.set_enabled false;
  Trace.set_enabled false

let reset () =
  Metrics.reset ();
  Quantile.reset_all ();
  Trace.reset ();
  Ledger.reset ()

let report_json () =
  let open Ds_util.Json in
  to_string
    (Obj
       [
         ("schema", Str "ds_obs/v1");
         ("metrics", Metrics.to_json (Metrics.snapshot ()));
         ("quantiles", Quantile.to_json (Quantile.snapshot ()));
         ("spans", Arr (List.map Trace.span_to_json (Trace.spans ())));
         ("spans_dropped", int (Trace.dropped ()));
         ("ledger", Ledger.to_json ());
       ])
  ^ "\n"

let write_report ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (report_json ()))

let prometheus () =
  Metrics.to_prometheus (Metrics.snapshot ())
  ^ Quantile.to_prometheus (Quantile.snapshot ())

let pp_summary ppf () =
  let snap = Metrics.snapshot () in
  let nonzero = List.filter (fun (_, v) -> v <> 0) snap.Metrics.counters in
  Format.fprintf ppf "obs: %d counters (%d non-zero), %d spans recorded@."
    (List.length snap.Metrics.counters)
    (List.length nonzero) (Trace.recorded ());
  let dropped = Trace.dropped () in
  if dropped > 0 then
    Format.fprintf ppf
      "  WARNING: span ring overwrote %d spans (capacity %d) — older spans lost@."
      dropped (Trace.capacity ());
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %s = %d@." name v)
    nonzero;
  List.iter
    (fun (name, s) ->
      if s.Quantile.s_count > 0 then
        Format.fprintf ppf "  %s: n=%d p50=%.0f p99=%.0f p999=%.0f@." name
          s.Quantile.s_count s.Quantile.s_p50 s.Quantile.s_p99
          s.Quantile.s_p999)
    (Quantile.snapshot ());
  List.iter
    (fun e -> Format.fprintf ppf "space-ledger: %a@." Ledger.pp_entry e)
    (Ledger.entries ())
