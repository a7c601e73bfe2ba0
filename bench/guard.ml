(* Bench-regression guard.

     dune exec bench/guard.exe -- BASE_DIR FRESH_DIR

   Checks the fresh FRESH_DIR/BENCH_{ingest,serve,sparsify}.json, and
   the committed BASE_DIR/BENCH_{ingest,sparsify}.json some rows compare
   them with, against one table, printing a verdict line per row.  Exits
   1 if a row fails or a file or key is missing: the fresh files come
   from the same commit's bench programs, so a missing key is a bug.

   Parallel speedup is taken over the fresh kernel rate, since absolute
   parallel rates depend on the runner, and its row switches on the
   fresh host_cores: one core can only be held to a no-regression floor
   on a one-domain pool, whose one slice goes straight into the caller's
   sketch.  Arena major words are near deterministic and sketch words
   deterministic, hence their tight ratios.  A fresh replica is one
   buffer allocation, so the arena/no-arena major-words ratio has a
   floor: a fresh replica may cost at most twice a recycled one, and
   per-child allocation in clone_zero would push it far below.  The absolute ceilings are
   loose on purpose: they catch pathologies (an O(store) scan per frame,
   a lost fsync batch, an extra chain pass), not scheduler noise. *)

module Json = Ds_util.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("guard: " ^ m); exit 1) fmt

let load dir name =
  let path = Filename.concat dir name in
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error m -> fail "cannot read %s" m
  in
  match Json.parse text with Ok doc -> (path, doc) | Error m -> fail "%s: %s" path m

let num (path, doc) keys =
  match Option.bind (Json.path keys doc) Json.to_float with
  | Some v -> v
  | None -> fail "%s: no number at %s" path (String.concat "." keys)

(* The parallel_agm array as (domains, speedup over the fresh kernel). *)
let curve (path, doc) =
  let point p =
    (int_of_float (num (path, p) [ "domains" ]), num (path, p) [ "speedup_vs_kernel" ])
  in
  match Option.bind (Json.member "parallel_agm" doc) Json.to_list with
  | Some points -> List.map point points
  | None -> fail "%s: no parallel_agm array" path

type rule = At_least of float | At_most of float | Below of float | Above of float | Equal of float

let holds v = function
  | At_least l -> v >= l
  | At_most l -> v <= l
  | Below l -> v < l
  | Above l -> v > l
  | Equal l -> v = l

(* One table row: [value] must satisfy [rule]; [shown] is the measurement
   column of its verdict line and [failing] the verdict when it does not.
   A [quiet] row prints only when it fails; [notes] print after it. *)
type row = {
  label : string;
  value : float;
  rule : rule;
  shown : string;
  failing : string;
  quiet : bool;
  notes : string list;
}

let row ?(quiet = false) ?(notes = []) label value rule failing shown =
  { label; value; rule; shown; failing; quiet; notes }

let () =
  let base, fresh =
    match Sys.argv with
    | [| _; base; fresh |] -> (load base, load fresh)
    | _ -> fail "usage: guard BASE_DIR FRESH_DIR"
  in
  let ingest0 = base "BENCH_ingest.json" and sparsify0 = base "BENCH_sparsify.json" in
  let ingest = fresh "BENCH_ingest.json" and serve = fresh "BENCH_serve.json" in
  let sparsify = fresh "BENCH_sparsify.json" in
  (* The fresh value at [keys] against [limit] of the committed one. *)
  let vs_base ?(change = true) (b, f) keys limit =
    let base = num b keys and now = num f keys in
    let pct = 100.0 *. ((now /. base) -. 1.0) in
    row (List.hd (List.rev keys)) now (limit base) "REGRESSION"
      (Printf.sprintf "base %12.0f  now %12.0f%s" base now
         (if change then Printf.sprintf "  (%+6.1f%%)" pct else ""))
  in
  let overhead label doc keys =
    let v = num doc keys in
    row label v (Below 0.03) "TOO HIGH" (Printf.sprintf "%.2f%% (limit 3%%)" (100.0 *. v))
  in
  let ceiling label doc keys limit =
    let v = num doc keys in
    row label v (At_most limit) "TOO SLOW"
      (Printf.sprintf "%10.1f ms (ceiling %.0f ms)" v limit)
  in
  let cores = int_of_float (num ingest [ "host_cores" ]) in
  let points = curve ingest in
  let speedup label d floor =
    let advisory (d, s) = Printf.sprintf "guard: advisory parallel_speedup_d%-2d %25.3fx" d s in
    match List.assoc_opt d points with
    | Some s ->
        row label s (At_least floor) "TOO SLOW" ~notes:(List.map advisory points)
          (Printf.sprintf "%.3fx (floor %.2fx, host cores %d)" s floor cores)
    | None -> fail "%s: no parallel_agm point at %d domains" (fst ingest) d
  in
  let arena_ratio = num ingest [ "gc"; "arena_major_words_ratio" ] in
  let streams = num serve [ "durability"; "recovery_streams" ] in
  let pencil_ok = num sparsify [ "sparsify_pencil_ok" ] in
  let table =
    List.map
      (fun k -> vs_base (ingest0, ingest) [ "single_thread"; k ] (fun b -> At_least (0.75 *. b)))
      [
        "kernel_one_sparse_ops_per_sec";
        "kernel_sparse_recovery_ops_per_sec";
        "kernel_l0_ops_per_sec";
        "kernel_agm_ops_per_sec";
      ]
    @ [
        overhead "metrics_enabled_overhead" ingest [ "metrics_overhead"; "enabled_overhead_frac" ];
        overhead "tracing_enabled_overhead" ingest [ "tracing_overhead"; "tracing_overhead_frac" ];
        row "arena_major_words_ratio" arena_ratio (At_least 0.5) "TOO LOW"
          (Printf.sprintf "%.3fx (floor 0.50x)" arena_ratio);
        vs_base ~change:false (ingest0, ingest) [ "gc"; "parallel_agm_major_words_arena" ]
          (fun b -> At_most (2.0 *. b));
        (if cores >= 2 then speedup "parallel_speedup_d2" 2 1.5
         else speedup "parallel_speedup_d1 (single-core floor)" 1 0.75);
        ceiling "serve_ingest_p99" serve [ "ingest"; "ingest_p99_ms" ] 250.0;
        ceiling "serve_recovery" serve [ "durability"; "recovery_ms" ] 2000.0;
        ceiling "serve_flush" serve [ "durability"; "flush_ms" ] 2000.0;
        row ~quiet:true "recovery_streams" streams (Above 0.0) "EMPTY STORE"
          (Printf.sprintf "%.0f (floor > 0)" streams);
        overhead "serve_obs_overhead_frac" serve [ "observability"; "serve_obs_overhead_frac" ];
        row "sparsify_pencil_ok" pencil_ok (Equal 1.0) "OUTSIDE (1 +- eps)"
          (Printf.sprintf "%d" (int_of_float pencil_ok));
        ceiling "sparsify_decode_ms_max" sparsify [ "sparsify_decode_ms_max" ] 15000.0;
        vs_base (sparsify0, sparsify) [ "sparsify_space_words_max" ] (fun b -> At_most (1.1 *. b));
      ]
  in
  let failures = ref 0 in
  List.iter
    (fun r ->
      let ok = holds r.value r.rule in
      if not ok then incr failures;
      if not (ok && r.quiet) then
        Printf.printf "guard: %-40s %s  %s\n" r.label r.shown (if ok then "ok" else r.failing);
      List.iter (Printf.printf "%s\n") r.notes)
    table;
  if !failures > 0 then fail "%d check(s) failed" !failures;
  print_endline "guard: all checks passed"
