(* The telemetry subsystem (lib/obs): registry semantics, merge-under-domains
   determinism, trace-ring wraparound, space-ledger bound checks and the
   exporters.  Everything here must hold with the registry both off (no-ops)
   and on (exact counts), because production code keeps the instrumentation
   compiled in unconditionally. *)

open Ds_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Each test owns the global registry state for its duration. *)
let with_obs f =
  Ds_obs.Export.enable ();
  Ds_obs.Export.reset ();
  Fun.protect
    ~finally:(fun () ->
      Ds_obs.Export.disable ();
      Ds_obs.Export.reset ())
    f

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* -------------------- metrics registry -------------------- *)

let test_counter_disabled_noop () =
  Ds_obs.Export.disable ();
  Ds_obs.Export.reset ();
  let c = Ds_obs.Metrics.counter "test.noop" in
  Ds_obs.Metrics.incr c 5;
  check_int "disabled incr does not count" 0 (Ds_obs.Metrics.value c)

let test_counter_enabled () =
  with_obs (fun () ->
      let c = Ds_obs.Metrics.counter "test.basic" in
      Ds_obs.Metrics.incr c 3;
      Ds_obs.Metrics.incr c 4;
      check_int "counts sum" 7 (Ds_obs.Metrics.value c);
      Ds_obs.Metrics.reset ();
      check_int "reset zeroes, keeps registration" 0 (Ds_obs.Metrics.value c))

let test_register_idempotent () =
  with_obs (fun () ->
      let a = Ds_obs.Metrics.counter "test.same" in
      let b = Ds_obs.Metrics.counter "test.same" in
      Ds_obs.Metrics.incr a 1;
      Ds_obs.Metrics.incr b 1;
      check_int "both handles hit one cell set" 2 (Ds_obs.Metrics.value a);
      check_bool "kind clash rejected" true
        (match Ds_obs.Metrics.gauge "test.same" with
        | exception Invalid_argument _ -> true
        | _ -> false))

let test_gauge_last_writer () =
  with_obs (fun () ->
      let g = Ds_obs.Metrics.gauge "test.gauge" in
      Ds_obs.Metrics.set g 41;
      Ds_obs.Metrics.set g 17;
      check_int "last write wins" 17 (Ds_obs.Metrics.gauge_value g))

(* Sharded counters merged at read must be exact (not sampled) no matter
   how the increments were spread over domains, and two identical runs
   must export identical snapshots. *)
let test_merge_under_domains_exact_and_deterministic () =
  with_obs (fun () ->
      let c = Ds_obs.Metrics.counter "test.domains" in
      let run () =
        Ds_obs.Metrics.reset ();
        let domains =
          Array.init 4 (fun d ->
              Domain.spawn (fun () ->
                  for _ = 1 to 10_000 do
                    Ds_obs.Metrics.incr c (1 + (d mod 2))
                  done))
        in
        Array.iter Domain.join domains;
        Ds_util.Json.to_string (Ds_obs.Metrics.to_json (Ds_obs.Metrics.snapshot ()))
      in
      let json1 = run () in
      check_int "exact total across domains" ((2 * 10_000 * 1) + (2 * 10_000 * 2))
        (Ds_obs.Metrics.value c);
      let json2 = run () in
      check_string "identical runs export identical snapshots" json1 json2)

(* -------------------- trace ring -------------------- *)

let test_trace_disabled_noop () =
  Ds_obs.Export.disable ();
  Ds_obs.Trace.reset ();
  let r = Ds_obs.Trace.with_span "test.span" (fun () -> 42) in
  check_int "body still runs" 42 r;
  check_int "nothing recorded" 0 (Ds_obs.Trace.recorded ())

let test_trace_records_and_raises () =
  with_obs (fun () ->
      let r = Ds_obs.Trace.with_span "ok" (fun () -> 7) in
      check_int "result threaded" 7 r;
      (match Ds_obs.Trace.with_span "boom" (fun () -> failwith "boom") with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "exception must propagate");
      let spans = Ds_obs.Trace.spans () in
      check_int "both spans kept (raising included)" 2 (List.length spans);
      check_string "order preserved" "ok" (List.hd spans).Ds_obs.Trace.name)

let test_trace_ring_wraparound () =
  with_obs (fun () ->
      Ds_obs.Trace.reset ~capacity:8 ();
      for i = 1 to 11 do
        Ds_obs.Trace.record (Printf.sprintf "s%d" i) ~start_ns:(Int64.of_int i) ~dur_ns:1L
      done;
      check_int "all recordings counted" 11 (Ds_obs.Trace.recorded ());
      let spans = Ds_obs.Trace.spans () in
      check_int "ring keeps the last capacity spans" 8 (List.length spans);
      List.iteri
        (fun i s ->
          check_string
            (Printf.sprintf "slot %d oldest-first" i)
            (Printf.sprintf "s%d" (i + 4))
            s.Ds_obs.Trace.name)
        spans;
      check_bool "invalid capacity rejected" true
        (match Ds_obs.Trace.reset ~capacity:0 () with
        | exception Invalid_argument _ -> true
        | _ -> false);
      Ds_obs.Trace.reset ())

let test_trace_jsonl () =
  with_obs (fun () ->
      Ds_obs.Trace.record "alpha" ~start_ns:10L ~dur_ns:5L;
      let jsonl = Ds_obs.Trace.to_jsonl () in
      (* Ids are fresh per run, so check the line through the parser
         instead of as a literal string. *)
      check_int "one line per span" 1
        (List.length (String.split_on_char '\n' (String.trim jsonl)));
      (match Ds_obs.Trace_tree.parse_jsonl jsonl with
      | [ sp ] ->
          check_string "name survives" "alpha" sp.Ds_obs.Trace.name;
          check_bool "timestamps survive" true
            (sp.Ds_obs.Trace.start_ns = 10L && sp.Ds_obs.Trace.dur_ns = 5L);
          check_bool "span id assigned" true (sp.Ds_obs.Trace.span_id <> 0L);
          check_bool "root span" true (sp.Ds_obs.Trace.parent_id = 0L)
      | spans -> Alcotest.failf "expected one span, parsed %d" (List.length spans));
      (* Pre-causal trace lines (no id fields) must still load. *)
      match
        Ds_obs.Trace_tree.parse_jsonl
          "{\"name\":\"old\",\"start_ns\":1,\"dur_ns\":2,\"domain\":0}\n"
      with
      | [ sp ] ->
          check_string "old-format name" "old" sp.Ds_obs.Trace.name;
          check_bool "old-format ids default to 0" true
            (sp.Ds_obs.Trace.span_id = 0L && sp.Ds_obs.Trace.trace_id = 0L)
      | spans -> Alcotest.failf "expected one old span, parsed %d" (List.length spans))

let test_trace_nesting_and_propagation () =
  with_obs (fun () ->
      Ds_obs.Trace.reset ();
      let inner_ctx = ref None in
      Ds_obs.Trace.with_span "outer" (fun () ->
          Ds_obs.Trace.with_span "inner" (fun () ->
              inner_ctx := Ds_obs.Trace.current_context ()));
      (match Ds_obs.Trace.spans () with
      | [ inner; outer ] ->
          (* spans are pushed on close: inner first *)
          check_string "inner closes first" "inner" inner.Ds_obs.Trace.name;
          check_bool "inner parented under outer" true
            (inner.Ds_obs.Trace.parent_id = outer.Ds_obs.Trace.span_id);
          check_bool "same trace" true
            (inner.Ds_obs.Trace.trace_id = outer.Ds_obs.Trace.trace_id);
          check_bool "outer is a root" true (outer.Ds_obs.Trace.parent_id = 0L);
          check_bool "context captured inner" true
            (match !inner_ctx with
            | Some c -> c.Ds_obs.Trace.span_id = inner.Ds_obs.Trace.span_id
            | None -> false)
      | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans));
      (* Carried context parents a span recorded on another "domain". *)
      Ds_obs.Trace.reset ();
      Ds_obs.Trace.with_span "root" (fun () ->
          let ctx = Option.get (Ds_obs.Trace.current_context ()) in
          Ds_obs.Trace.with_context (Some ctx) (fun () ->
              Ds_obs.Trace.with_span "remote" (fun () -> ())));
      match Ds_obs.Trace.spans () with
      | [ remote; root ] ->
          check_bool "remote links under carried context" true
            (remote.Ds_obs.Trace.parent_id = root.Ds_obs.Trace.span_id
            && remote.Ds_obs.Trace.trace_id = root.Ds_obs.Trace.trace_id)
      | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans))

let test_trace_pool_propagation () =
  with_obs (fun () ->
      Ds_obs.Trace.reset ();
      Ds_par.Pool.with_pool ~domains:2 (fun pool ->
          Ds_obs.Trace.with_span "submit.root" (fun () ->
              ignore
                (Ds_par.Pool.run pool
                   (List.init 4 (fun i () ->
                        Ds_obs.Trace.with_span "submit.task" (fun () -> i))))));
      let spans = Ds_obs.Trace.spans () in
      let root =
        List.find (fun s -> s.Ds_obs.Trace.name = "submit.root") spans
      in
      let tasks =
        List.filter (fun s -> s.Ds_obs.Trace.name = "submit.task") spans
      in
      check_int "all worker spans recorded" 4 (List.length tasks);
      List.iter
        (fun t ->
          check_bool "task parented under submitter" true
            (t.Ds_obs.Trace.parent_id = root.Ds_obs.Trace.span_id);
          check_bool "task in submitter's trace" true
            (t.Ds_obs.Trace.trace_id = root.Ds_obs.Trace.trace_id))
        tasks)

(* -------------------- trace tree + critical path -------------------- *)

let test_trace_tree_and_critical_path () =
  with_obs (fun () ->
      Ds_obs.Trace.reset ();
      Ds_obs.Trace.with_span "root" (fun () ->
          Ds_obs.Trace.with_span "a" (fun () ->
              Ds_obs.Trace.with_span "a1" (fun () -> Unix.sleepf 0.002));
          Ds_obs.Trace.with_span "b" (fun () -> Unix.sleepf 0.001));
      let forest = Ds_obs.Trace_tree.of_spans (Ds_obs.Trace.spans ()) in
      check_int "one root" 1 (List.length forest.Ds_obs.Trace_tree.roots);
      check_int "no orphans" 0 forest.Ds_obs.Trace_tree.orphans;
      check_int "no cycles" 0 forest.Ds_obs.Trace_tree.cycles_broken;
      let root = Option.get (Ds_obs.Trace_tree.main_root forest) in
      check_string "root name" "root" root.Ds_obs.Trace_tree.span.Ds_obs.Trace.name;
      check_int "root has two children" 2
        (List.length root.Ds_obs.Trace_tree.children);
      let path = Ds_obs.Trace_tree.critical_path root in
      let total = Ds_obs.Trace_tree.path_total path in
      check_bool "critical path partitions the root exactly" true
        (total = root.Ds_obs.Trace_tree.span.Ds_obs.Trace.dur_ns);
      (* self time of root = dur - children (they don't overlap here) *)
      let rollups = Ds_obs.Trace_tree.rollups forest in
      check_int "one rollup row per name" 4 (List.length rollups);
      let r_a1 =
        List.find (fun r -> r.Ds_obs.Trace_tree.r_name = "a1") rollups
      in
      check_int "a1 count" 1 r_a1.Ds_obs.Trace_tree.r_count;
      check_bool "a1 self = total (leaf)" true
        (r_a1.Ds_obs.Trace_tree.r_self_ns = r_a1.Ds_obs.Trace_tree.r_total_ns);
      (* Exporters on the same spans. *)
      let chrome = Ds_obs.Trace_tree.to_chrome_json (Ds_obs.Trace.spans ()) in
      List.iter
        (fun needle -> check_bool ("chrome has " ^ needle) true (contains ~needle chrome))
        [ "\"ph\":\"X\""; "\"ts\":"; "\"dur\":"; "\"pid\":"; "\"tid\":" ];
      let folded = Ds_obs.Trace_tree.to_folded forest in
      check_bool "folded has root;a;a1 stack" true
        (contains ~needle:"root;a;a1 " folded))

let test_spans_dropped_reported () =
  with_obs (fun () ->
      Ds_obs.Trace.reset ~capacity:4 ();
      for i = 1 to 10 do
        Ds_obs.Trace.record (Printf.sprintf "d%d" i) ~start_ns:(Int64.of_int i) ~dur_ns:1L
      done;
      check_int "dropped = recorded - kept" 6 (Ds_obs.Trace.dropped ());
      let json = Ds_obs.Export.report_json () in
      check_bool "report_json has spans_dropped" true
        (contains ~needle:"\"spans_dropped\":6" json);
      let summary = Format.asprintf "%a" Ds_obs.Export.pp_summary () in
      check_bool "pp_summary warns about drops" true
        (contains ~needle:"WARNING" summary && contains ~needle:"6" summary);
      Ds_obs.Trace.reset ();
      let clean = Format.asprintf "%a" Ds_obs.Export.pp_summary () in
      check_bool "no warning without drops" false (contains ~needle:"WARNING" clean))

let test_prometheus_sanitize () =
  with_obs (fun () ->
      let c = Ds_obs.Metrics.counter "weird/name:with.bad chars-1" in
      Ds_obs.Metrics.incr c 1;
      let prom = Ds_obs.Export.prometheus () in
      check_bool "sanitized family" true
        (contains ~needle:"# TYPE weird_name:with_bad_chars_1 counter" prom);
      check_bool "sanitized sample" true
        (contains ~needle:"weird_name:with_bad_chars_1 1" prom);
      (* every exported name obeys the Prometheus charset *)
      let ok_first = function 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false in
      String.split_on_char '\n' prom
      |> List.iter (fun line ->
             if line <> "" && not (String.length line >= 1 && line.[0] = '#') then
               check_bool ("legal first char: " ^ line) true (ok_first line.[0])))

(* -------------------- space ledger -------------------- *)

let test_ledger_constant_and_check () =
  with_obs (fun () ->
      Ds_obs.Ledger.record ~wire_bytes:64 ~phase:"test.phase" ~words:500 100.0;
      match Ds_obs.Ledger.entries () with
      | [ e ] ->
          check_string "phase" "test.phase" e.Ds_obs.Ledger.phase;
          check_int "words" 500 e.Ds_obs.Ledger.words;
          check_int "wire" 64 e.Ds_obs.Ledger.wire_bytes;
          Alcotest.(check (float 1e-9)) "constant = words / bound" 5.0 e.Ds_obs.Ledger.constant;
          check_bool "within tolerance" true (Ds_obs.Ledger.check e);
          check_bool "fails past the tolerance" false
            (Ds_obs.Ledger.check { e with Ds_obs.Ledger.constant = 4097.0 })
      | es -> Alcotest.failf "expected one entry, got %d" (List.length es))

let test_ledger_rejects_bad_bounds () =
  with_obs (fun () ->
      check_bool "bound <= 0 rejected" true
        (match Ds_obs.Ledger.record ~phase:"bad" ~words:1 0.0 with
        | exception Invalid_argument _ -> true
        | _ -> false);
      check_bool "negative words rejected" true
        (match Ds_obs.Ledger.record ~phase:"bad" ~words:(-1) 10.0 with
        | exception Invalid_argument _ -> true
        | _ -> false))

let test_ledger_disabled_noop () =
  Ds_obs.Export.disable ();
  Ds_obs.Export.reset ();
  Ds_obs.Ledger.record ~phase:"off" ~words:1 10.0;
  check_int "no entry recorded while disabled" 0 (List.length (Ds_obs.Ledger.entries ()))

(* -------------------- exporters -------------------- *)

let test_exporters_smoke () =
  with_obs (fun () ->
      let c = Ds_obs.Metrics.counter "exp.count" in
      let g = Ds_obs.Metrics.gauge "exp.gauge" in
      Ds_obs.Metrics.incr c 2;
      Ds_obs.Metrics.set g 9;
      Ds_obs.Trace.record "exp.span" ~start_ns:1L ~dur_ns:2L;
      Ds_obs.Ledger.record ~phase:"exp.phase" ~words:10 100.0;
      let json = Ds_obs.Export.report_json () in
      List.iter
        (fun needle -> check_bool ("json has " ^ needle) true (contains ~needle json))
        [
          "\"schema\":\"ds_obs/v1\"";
          "\"exp.count\":2";
          "\"exp.gauge\":9";
          "\"exp.span\"";
          "\"exp.phase\"";
          "\"within_bound\":true";
        ];
      let prom = Ds_obs.Export.prometheus () in
      List.iter
        (fun needle -> check_bool ("prometheus has " ^ needle) true (contains ~needle prom))
        [ "# TYPE exp_count counter"; "exp_count 2"; "exp_gauge 9" ])

(* -------------------- quantile sketch -------------------- *)

let nearest_rank sorted q =
  let n = Array.length sorted in
  let r = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
  float_of_int sorted.(r - 1)

(* The estimator's contract: the returned value is the midpoint of the
   cell holding the true nearest-rank sample, so it is within half a
   cell width — at most [v/64 + 0.5] — of the truth.  We assert the
   looser [v/20 + 1] (5%), the bound the serve-path consumers rely on. *)
let check_rank_error ~msg samples qs =
  let t = Ds_obs.Quantile.make () in
  List.iter (Ds_obs.Quantile.observe t) samples;
  let sorted = Array.of_list samples in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      let truth = nearest_rank sorted q in
      let est = Ds_obs.Quantile.estimate t q in
      let bound = (truth /. 20.0) +. 1.0 in
      if Float.abs (est -. truth) > bound then
        Alcotest.failf "%s: q=%.3f estimate %.1f vs truth %.1f (bound %.1f, n=%d)" msg q
          est truth bound (Array.length sorted))
    qs

let test_quantile_exact_small () =
  (* Below 64 every cell has width 1: the estimate is the exact
     nearest-rank sample, not an approximation. *)
  let t = Ds_obs.Quantile.make () in
  for v = 0 to 63 do
    Ds_obs.Quantile.observe t v
  done;
  check_int "count" 64 (Ds_obs.Quantile.count t);
  check_int "sum" (63 * 64 / 2) (Ds_obs.Quantile.sum t);
  List.iter
    (fun (q, expect) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q=%.3f exact" q)
        expect
        (Ds_obs.Quantile.estimate t q))
    [ (0.0, 0.0); (0.5, 31.0); (1.0, 63.0) ]

let test_quantile_empty_and_negative () =
  let t = Ds_obs.Quantile.make () in
  check_bool "empty estimate is nan" true (Float.is_nan (Ds_obs.Quantile.estimate t 0.5));
  let s = Ds_obs.Quantile.summarize t in
  check_int "empty count" 0 s.Ds_obs.Quantile.s_count;
  Ds_obs.Quantile.observe t (-17);
  Alcotest.(check (float 0.0)) "negative clamps to 0" 0.0 (Ds_obs.Quantile.estimate t 0.5)

let test_quantile_zipf_adversarial () =
  (* Heavy head, long tail, then a far-out spike band: the shape that
     breaks mean-based reporting and uniform histograms. *)
  let samples =
    List.init 2000 (fun i -> 1_000_000 / (i + 1))
    @ List.init 25 (fun i -> 800_000_000 + (i * 1_000_000))
  in
  check_rank_error ~msg:"zipf+spikes" samples [ 0.5; 0.9; 0.99; 0.999 ]

let prop_quantile_rank_error =
  QCheck.Test.make ~name:"estimate within 5% rank error on any sample set" ~count:60
    QCheck.(
      list_of_size Gen.(int_range 1 400)
        (oneofl [ 3; 64; 4096; 1_000_000; 999_999_937; 17; 255 ]))
  @@ fun seeds ->
  (* Grow each seed into a deterministic burst so magnitudes mix. *)
  let samples = List.concat_map (fun s -> [ s; s / 3; (s * 2) + 1 ]) seeds in
  let t = Ds_obs.Quantile.make () in
  List.iter (Ds_obs.Quantile.observe t) samples;
  let sorted = Array.of_list samples in
  Array.sort compare sorted;
  List.for_all
    (fun q ->
      let truth = nearest_rank sorted q in
      Float.abs (Ds_obs.Quantile.estimate t q -. truth) <= (truth /. 20.0) +. 1.0)
    [ 0.5; 0.9; 0.99; 0.999 ]

let test_quantile_sharded_under_domains () =
  with_obs (fun () ->
      let q = Ds_obs.Quantile.quantile "test.q.sharded" in
      let q' = Ds_obs.Quantile.quantile "test.q.sharded" in
      check_bool "registration idempotent" true (q == q');
      let per_domain = 5_000 in
      let work () =
        for i = 1 to per_domain do
          Ds_obs.Quantile.observe q (i * 17)
        done
      in
      let domains = List.init 4 (fun _ -> Domain.spawn work) in
      work ();
      List.iter Domain.join domains;
      check_int "no observation lost across domains" (5 * per_domain)
        (Ds_obs.Quantile.count q);
      (* Every domain wrote the same multiset, so quantiles match the
         single-domain truth within the cell bound. *)
      let truth = float_of_int (int_of_float (0.99 *. float_of_int per_domain) * 17) in
      let est = Ds_obs.Quantile.estimate q 0.99 in
      check_bool "p99 within bound after sharded writes" true
        (Float.abs (est -. truth) <= (truth /. 20.0) +. 17.0))

let test_quantile_gating_and_export () =
  Ds_obs.Export.disable ();
  Ds_obs.Export.reset ();
  let q = Ds_obs.Quantile.quantile "test.q.gated" in
  Ds_obs.Quantile.observe q 42;
  check_int "gated sketch ignores observations when disabled" 0
    (Ds_obs.Quantile.count q);
  with_obs (fun () ->
      let q = Ds_obs.Quantile.quantile "test.q.export" in
      List.iter (Ds_obs.Quantile.observe q) [ 10; 20; 30; 40 ];
      let json = Ds_obs.Export.report_json () in
      check_bool "report_json has quantiles section" true
        (contains ~needle:"\"quantiles\":" json);
      check_bool "report_json has the sketch" true
        (contains ~needle:"\"test.q.export\":{\"count\":4" json);
      (* The hand-rolled report must stay parseable by the in-tree
         reader — serve-stats and the flight post-mortem depend on it. *)
      (match Json.parse json with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "report_json unparseable: %s" m);
      let prom = Ds_obs.Export.prometheus () in
      check_bool "prometheus summary type" true
        (contains ~needle:"# TYPE test_q_export summary" prom);
      check_bool "prometheus p99 series" true
        (contains ~needle:"test_q_export{quantile=\"0.99\"}" prom))

(* -------------------- end-to-end: instrumented spanner -------------------- *)

let test_spanner_files_ledger_entries () =
  with_obs (fun () ->
      let n = 48 and k = 2 in
      let rng = Prng.create 2014 in
      let g = Ds_graph.Gen.connected_gnp (Prng.split rng) ~n ~p:0.15 in
      let stream = Ds_stream.Stream_gen.with_churn (Prng.split rng) ~decoys:100 g in
      let _r =
        Ds_core.Two_pass_spanner.run (Prng.split rng) ~n
          ~params:(Ds_core.Two_pass_spanner.default_params ~k)
          stream
      in
      let entries = Ds_obs.Ledger.entries () in
      let find phase = List.find (fun e -> e.Ds_obs.Ledger.phase = phase) entries in
      let p1 = find "two_pass.pass1" and total = find "two_pass.total" in
      check_bool "pass1 words positive" true (p1.Ds_obs.Ledger.words > 0);
      check_bool "pass1 wire bytes positive" true (p1.Ds_obs.Ledger.wire_bytes > 0);
      check_bool "pass1 within bound" true (Ds_obs.Ledger.check p1);
      check_bool "total >= pass1" true
        (total.Ds_obs.Ledger.words >= p1.Ds_obs.Ledger.words);
      check_bool "passes traced" true
        (List.exists
           (fun s -> s.Ds_obs.Trace.name = "spanner.pass2")
           (Ds_obs.Trace.spans ())))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "disabled no-op" `Quick test_counter_disabled_noop;
          Alcotest.test_case "counter" `Quick test_counter_enabled;
          Alcotest.test_case "register idempotent" `Quick test_register_idempotent;
          Alcotest.test_case "gauge" `Quick test_gauge_last_writer;
          Alcotest.test_case "merge under domains" `Quick
            test_merge_under_domains_exact_and_deterministic;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled no-op" `Quick test_trace_disabled_noop;
          Alcotest.test_case "records and raises" `Quick test_trace_records_and_raises;
          Alcotest.test_case "ring wraparound" `Quick test_trace_ring_wraparound;
          Alcotest.test_case "jsonl" `Quick test_trace_jsonl;
          Alcotest.test_case "nesting + carried context" `Quick
            test_trace_nesting_and_propagation;
          Alcotest.test_case "pool propagation" `Quick test_trace_pool_propagation;
          Alcotest.test_case "tree + critical path" `Quick
            test_trace_tree_and_critical_path;
          Alcotest.test_case "spans dropped surfaced" `Quick test_spans_dropped_reported;
          Alcotest.test_case "prometheus sanitize" `Quick test_prometheus_sanitize;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "constant and check" `Quick test_ledger_constant_and_check;
          Alcotest.test_case "rejects bad bounds" `Quick test_ledger_rejects_bad_bounds;
          Alcotest.test_case "disabled no-op" `Quick test_ledger_disabled_noop;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "exact below 64" `Quick test_quantile_exact_small;
          Alcotest.test_case "empty + negative" `Quick test_quantile_empty_and_negative;
          Alcotest.test_case "zipf + spike band" `Quick test_quantile_zipf_adversarial;
          Alcotest.test_case "sharded under domains" `Quick
            test_quantile_sharded_under_domains;
          Alcotest.test_case "gating + export" `Quick test_quantile_gating_and_export;
          QCheck_alcotest.to_alcotest prop_quantile_rank_error;
        ] );
      ("export", [ Alcotest.test_case "json + prometheus" `Quick test_exporters_smoke ]);
      ( "end-to-end",
        [ Alcotest.test_case "spanner ledger + counters" `Quick test_spanner_files_ledger_entries ]
      );
    ]
