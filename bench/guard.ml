(* Bench-regression guard.

     dune exec bench/guard.exe -- BASELINE.json FRESH.json [TOLERANCE] [SERVE.json]
                                  [SPARSIFY_BASELINE.json SPARSIFY_FRESH.json]

   Compares a freshly measured BENCH_ingest.json against the committed
   baseline: every single-thread kernel throughput must be within
   TOLERANCE (default 25%) of the baseline, and the telemetry overheads
   recorded in the fresh file (metrics enabled vs disabled, and span
   tracing enabled vs disabled, each measured interleaved on the
   sharded AGM path) must be under 3%.

   Parallel scaling is gated against the fresh run's own single-thread
   kernel rate, never against the baseline file: absolute parallel
   rates depend on the runner, but the shape of the curve is the
   static partition's responsibility.  The thresholds are core-aware
   (the fresh file records host_cores): a multi-core runner must show
   >= 1.5x at 2 domains, while a single-core runner can only be held to
   a no-regression floor — a one-domain pool must keep >= 0.75x of the
   sequential kernel.  The full 8-domain curve is printed as advisory
   only.

   With a fourth argument — a fresh BENCH_serve.json — the serving
   layer is gated on absolute ceilings rather than a baseline ratio:
   ingest latency through the socket is dominated by syscalls and
   checkpoint fsyncs, so its budget is a wall-clock promise (p99 under
   250 ms, recovery of the full store under 2 s), not a machine-relative
   one.  The ceilings are deliberately loose: they catch the pathology
   class (an accidental O(store) scan per frame, a lost fsync batch, a
   recovery walk that re-decodes every generation), not scheduler noise.

   With a fifth and sixth argument — the committed BENCH_sparsify.json
   baseline and a freshly measured one — the single-pass sparsifier is
   gated three ways: the fresh run must report pencil_ok (every suite
   graph inside its exact (1 +- eps) window), its decode time must stay
   under an absolute wall-clock ceiling (decode is CG solves plus a
   candidate sweep; the ceiling catches an accidental extra chain pass
   or a quadratic blow-up, not machine noise), and its sketch size in
   words — which is deterministic — may not exceed the baseline's by
   more than 10%.

   The values are extracted with a key scanner rather than a JSON
   parser: the repo deliberately has no JSON dependency, and
   bench/ingest.ml writes each key exactly once. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("guard: " ^ m); exit 1) fmt

let read_file path =
  try
    let ic = open_in_bin path in
    let data = really_input_string ic (in_channel_length ic) in
    close_in ic;
    data
  with Sys_error m -> fail "cannot read %s: %s" path m

let is_number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* First occurrence of ["key": <number>]; None if the key is absent. *)
let find_number json key =
  let pat = Printf.sprintf "\"%s\"" key in
  let plen = String.length pat and len = String.length json in
  let rec search i =
    if i + plen > len then None
    else if String.sub json i plen = pat then
      let j = ref (i + plen) in
      while !j < len && (json.[!j] = ':' || json.[!j] = ' ') do incr j done;
      let start = !j in
      while !j < len && is_number_char json.[!j] do incr j done;
      if !j = start then search (i + 1)
      else float_of_string_opt (String.sub json start (!j - start))
    else search (i + 1)
  in
  search 0

let require json path key =
  match find_number json key with
  | Some v -> v
  | None -> fail "%s: key %S not found" path key

let throughput_keys =
  [
    "kernel_one_sparse_ops_per_sec";
    "kernel_sparse_recovery_ops_per_sec";
    "kernel_l0_ops_per_sec";
    "kernel_agm_ops_per_sec";
  ]

let max_overhead = 0.03

let () =
  let argc = Array.length Sys.argv in
  if argc < 3 then fail "usage: guard BASELINE.json FRESH.json [TOLERANCE]";
  let baseline_path = Sys.argv.(1) and fresh_path = Sys.argv.(2) in
  let tolerance = if argc > 3 then float_of_string Sys.argv.(3) else 0.25 in
  let baseline = read_file baseline_path and fresh = read_file fresh_path in
  let failures = ref 0 in
  List.iter
    (fun key ->
      let base = require baseline baseline_path key in
      let now = require fresh fresh_path key in
      let floor = (1.0 -. tolerance) *. base in
      let verdict = if now >= floor then "ok" else (incr failures; "REGRESSION") in
      Printf.printf "guard: %-40s base %12.0f  now %12.0f  (%+6.1f%%)  %s\n" key base now
        (100.0 *. ((now /. base) -. 1.0))
        verdict)
    throughput_keys;
  (* Overheads are checked on the fresh run only: older baselines predate
     the telemetry subsystem and legitimately lack the keys. *)
  List.iter
    (fun (label, key) ->
      let overhead = require fresh fresh_path key in
      let verdict =
        if overhead < max_overhead then "ok" else (incr failures; "TOO HIGH")
      in
      Printf.printf "guard: %-40s %.2f%% (limit %.0f%%)  %s\n" label (100.0 *. overhead)
        (100.0 *. max_overhead) verdict)
    [
      ("metrics_enabled_overhead", "enabled_overhead_frac");
      ("tracing_enabled_overhead", "tracing_overhead_frac");
    ];
  (* GC gate (v3 schema). The fresh file must show the arena paying for
     itself: recycled replicas must at least halve the major-heap garbage
     of fresh clones on the parallel AGM path. A v2 baseline has no GC
     keys — the trajectory starts with the first v3 file — and a v2
     fresh file (older binary) skips the gate entirely. When both files
     are v3, the fresh run's arena-path allocation must not blow up
     against the recorded baseline (loose 2x: allocation is near
     deterministic, GC bookkeeping noise is not). *)
  (match find_number fresh "arena_major_words_ratio" with
  | None -> print_endline "guard: no GC section in fresh file (pre-v3), skipping"
  | Some ratio ->
      let verdict = if ratio <= 0.5 then "ok" else (incr failures; "TOO HIGH") in
      Printf.printf "guard: %-40s %.3fx (limit 0.50x)  %s\n" "arena_major_words_ratio" ratio
        verdict;
      (match
         ( find_number baseline "parallel_agm_major_words_arena",
           find_number fresh "parallel_agm_major_words_arena" )
       with
      | Some base, Some now when base > 0.0 ->
          let verdict =
            if now <= 2.0 *. base then "ok" else (incr failures; "REGRESSION")
          in
          Printf.printf "guard: %-40s base %12.0f  now %12.0f  %s\n"
            "parallel_agm_major_words_arena" base now verdict
      | _ -> print_endline "guard: baseline has no GC keys (pre-v3), trajectory starts here"));
  (* Parallel gate (fresh run only; v1 baselines have no flat curve). *)
  (match find_number fresh "parallel_speedup_d1" with
  | None -> print_endline "guard: no parallel curve in fresh file (pre-v2), skipping"
  | Some d1 ->
      let host_cores =
        int_of_float (Option.value ~default:1.0 (find_number fresh "host_cores"))
      in
      let check label value floor =
        let verdict = if value >= floor then "ok" else (incr failures; "TOO SLOW") in
        Printf.printf "guard: %-40s %.3fx (floor %.2fx, host cores %d)  %s\n" label value
          floor host_cores verdict
      in
      if host_cores >= 2 then
        check "parallel_speedup_d2" (require fresh fresh_path "parallel_speedup_d2") 1.5
      else
        (* One core: parallelism cannot pay, so hold the partition to its
           overhead — on a one-domain pool the single slice goes straight
           into the caller's sketch and must stay near the plain kernel. *)
        check "parallel_speedup_d1 (single-core floor)" d1 0.75;
      List.iter
        (fun d ->
          match find_number fresh (Printf.sprintf "parallel_speedup_d%d" d) with
          | Some s -> Printf.printf "guard: advisory parallel_speedup_d%-2d %25.3fx\n" d s
          | None -> ())
        [ 1; 2; 4; 8 ]);
  (* Serve gate: absolute latency ceilings on a fresh BENCH_serve.json. *)
  (if argc > 4 then begin
     let serve_path = Sys.argv.(4) in
     let serve = read_file serve_path in
     let ceiling label key limit =
       let v = require serve serve_path key in
       let verdict = if v <= limit then "ok" else (incr failures; "TOO SLOW") in
       Printf.printf "guard: %-40s %10.1f ms (ceiling %.0f ms)  %s\n" label v limit verdict
     in
     ceiling "serve_ingest_p99" "ingest_p99_ms" 250.0;
     ceiling "serve_recovery" "recovery_ms" 2000.0;
     ceiling "serve_flush" "flush_ms" 2000.0;
     (match find_number serve "recovery_streams" with
     | Some s when s > 0.0 -> ()
     | _ ->
         incr failures;
         print_endline "guard: serve file recovered zero streams            EMPTY STORE");
     (* Enabled-observability overhead on the serve path (v2 schema): a
        v1 file predates the quantile/STAT/flight subsystem and
        legitimately lacks the key. *)
     match find_number serve "serve_obs_overhead_frac" with
     | None -> print_endline "guard: no serve observability overhead (pre-v2), skipping"
     | Some o ->
         let verdict = if o < max_overhead then "ok" else (incr failures; "TOO HIGH") in
         Printf.printf "guard: %-40s %.2f%% (limit %.0f%%)  %s\n" "serve_obs_overhead_frac"
           (100.0 *. o) (100.0 *. max_overhead) verdict
   end);
  (* Sparsify gate: committed baseline + fresh BENCH_sparsify.json. *)
  (if argc > 6 then begin
     let sp_base_path = Sys.argv.(5) and sp_fresh_path = Sys.argv.(6) in
     let sp_base = read_file sp_base_path and sp_fresh = read_file sp_fresh_path in
     let pencil_ok = require sp_fresh sp_fresh_path "sparsify_pencil_ok" in
     let verdict =
       if pencil_ok = 1.0 then "ok" else (incr failures; "OUTSIDE (1 +- eps)")
     in
     Printf.printf "guard: %-40s %d  %s\n" "sparsify_pencil_ok"
       (int_of_float pencil_ok) verdict;
     let decode_ms = require sp_fresh sp_fresh_path "sparsify_decode_ms_max" in
     let decode_ceiling = 15000.0 in
     let verdict =
       if decode_ms <= decode_ceiling then "ok" else (incr failures; "TOO SLOW")
     in
     Printf.printf "guard: %-40s %10.1f ms (ceiling %.0f ms)  %s\n"
       "sparsify_decode_ms_max" decode_ms decode_ceiling verdict;
     let base_words = require sp_base sp_base_path "sparsify_space_words_max" in
     let now_words = require sp_fresh sp_fresh_path "sparsify_space_words_max" in
     let verdict =
       if now_words <= 1.1 *. base_words then "ok" else (incr failures; "REGRESSION")
     in
     Printf.printf "guard: %-40s base %12.0f  now %12.0f  (%+6.1f%%)  %s\n"
       "sparsify_space_words_max" base_words now_words
       (100.0 *. ((now_words /. base_words) -. 1.0))
       verdict
   end);
  if !failures > 0 then fail "%d check(s) failed" !failures;
  print_endline "guard: all checks passed"
