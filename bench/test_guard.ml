(* guard.exe run as a subprocess: the committed baselines are BASE_DIR,
   and FRESH_DIR is a temp dir holding copies of them plus a serve
   document, doctored by one value per case.  In bounds the guard
   passes; each table row pushed past its limit fails alone with its own
   verdict; a value exactly at a limit lands on the side its operator
   says; and a missing file, an unparsable file or a missing key fails
   the run. *)

module Json = Ds_util.Json

(* dune runs tests in _build/default/bench; the baselines are deps. *)
let base_dir = Filename.parent_dir_name
let guard = Filename.concat Filename.current_dir_name "guard.exe"

let read name =
  let path = Filename.concat base_dir name in
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok doc -> doc
  | Error m -> failwith (path ^ ": " ^ m)

let ingest0 = read "BENCH_ingest.json"
let sparsify0 = read "BENCH_sparsify.json"

let serve0 =
  Json.Obj
    [
      ("ingest", Json.Obj [ ("ingest_p99_ms", Json.Num 12.5) ]);
      ( "durability",
        Json.Obj
          [
            ("flush_ms", Json.Num 20.0);
            ("recovery_ms", Json.Num 300.0);
            ("recovery_streams", Json.int 8);
          ] );
      ("observability", Json.Obj [ ("serve_obs_overhead_frac", Json.Num 0.004) ]);
    ]

let num doc keys = Option.get (Option.bind (Json.path keys doc) Json.to_float)

(* [edit keys f doc] is [doc] with the value at [keys] replaced by [f] of
   it, or removed when [f] is None; a key into an array is an index. *)
let rec edit keys f doc =
  let step v = match keys with [ _ ] -> f v | _ :: rest -> Some (edit rest f v) | [] -> None in
  match (keys, doc) with
  | k :: _, Json.Obj fields when List.mem_assoc k fields ->
      Json.Obj
        (List.filter_map
           (fun (k', v) -> if k' = k then Option.map (fun v -> (k, v)) (step v) else Some (k', v))
           fields)
  | k :: _, Json.Arr items when int_of_string k < List.length items ->
      let at i v = if i = int_of_string k then Option.to_list (step v) else [ v ] in
      Json.Arr (List.concat (List.mapi at items))
  | _ -> invalid_arg ("edit: no " ^ String.concat "." keys)

let set keys v doc = edit keys (fun _ -> Some (Json.Num v)) doc
let remove keys doc = edit keys (fun _ -> None) doc

type fresh = { ingest : Json.t; serve : Json.t; sparsify : Json.t }

(* The committed ingest baseline predates single-buffer replicas: its
   arena ratio (0.0019) is below the row's floor, so in bounds uses 1.0,
   what a fresh replica that is one buffer allocation gives. *)
let in_bounds =
  {
    ingest = set [ "gc"; "arena_major_words_ratio" ] 1.0 ingest0;
    serve = serve0;
    sparsify = sparsify0;
  }

let files f =
  [
    ("BENCH_ingest.json", Json.to_string f.ingest);
    ("BENCH_serve.json", Json.to_string f.serve);
    ("BENCH_sparsify.json", Json.to_string f.sparsify);
  ]

(* Exit code and output lines of the guard on [args], after writing
   [files] (name, text) into FRESH_DIR. *)
let run_guard ?(args = fun dir -> [ base_dir; dir ]) files =
  Bench_kit.with_temp_dir "dynospan-guard-test" @@ fun dir ->
  List.iter
    (fun (name, text) ->
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc text))
    files;
  let out = Filename.concat dir "guard.out" in
  let code = Sys.command (Filename.quote_command guard (args dir) ~stdout:out ~stderr:out) in
  (code, String.split_on_char '\n' (In_channel.with_open_bin out In_channel.input_all))

let check_line label lines suffix =
  let prefix = Printf.sprintf "guard: %-40s " label in
  match List.find_opt (String.starts_with ~prefix) lines with
  | Some l -> Alcotest.(check bool) l true (String.ends_with ~suffix:("  " ^ suffix) l)
  | None -> Alcotest.failf "no verdict line for %s in\n%s" label (String.concat "\n" lines)

let pass label f =
  let code, lines = run_guard (files f) in
  Alcotest.(check int) "exit code" 0 code;
  check_line label lines "ok";
  Alcotest.(check bool) "all checks passed" true (List.mem "guard: all checks passed" lines);
  lines

let expect_pass label f () = ignore (pass label f)

(* In bounds: 16 verdict lines (recovery_streams prints only when it
   fails), the 4-point advisory curve, and the summary. *)
let expect_in_bounds label f () =
  let lines = pass label f in
  let count prefix = List.length (List.filter (String.starts_with ~prefix) lines) in
  Alcotest.(check int) "advisory lines" 4 (count "guard: advisory ");
  Alcotest.(check int) "verdict lines" 16 (count "guard: " - count "guard: advisory " - 1)

let expect_fail label word f () =
  let code, lines = run_guard (files f) in
  Alcotest.(check int) "exit code" 1 code;
  check_line label lines word;
  Alcotest.(check bool) "one failure" true (List.mem "guard: 1 check(s) failed" lines)

let expect_error ?args files () =
  let code, _ = run_guard ?args files in
  Alcotest.(check int) "exit code" 1 code

let ingest keys v = { in_bounds with ingest = set keys v in_bounds.ingest }
let serve keys v = { in_bounds with serve = set keys v serve0 }
let sparsify keys v = { in_bounds with sparsify = set keys v sparsify0 }
let two_cores f = { f with ingest = set [ "host_cores" ] 2.0 f.ingest }

(* The baseline was recorded on one core; points 0 and 1 of its
   parallel_agm curve are at 1 and 2 domains. *)
let d1 v = ingest [ "parallel_agm"; "0"; "speedup_vs_kernel" ] v
let d2 v = two_cores (ingest [ "parallel_agm"; "1"; "speedup_vs_kernel" ] v)
let kernel k = [ "single_thread"; k ]
let agm_rate = kernel "kernel_agm_ops_per_sec"
let metrics = [ "metrics_overhead"; "enabled_overhead_frac" ]
let tracing = [ "tracing_overhead"; "tracing_overhead_frac" ]
let serve_obs = [ "observability"; "serve_obs_overhead_frac" ]
let arena_ratio = [ "gc"; "arena_major_words_ratio" ]
let arena_words = [ "gc"; "parallel_agm_major_words_arena" ]
let p99 = [ "ingest"; "ingest_p99_ms" ]
let recovery = [ "durability"; "recovery_ms" ]
let flush = [ "durability"; "flush_ms" ]
let decode = [ "sparsify_decode_ms_max" ]
let space_words = [ "sparsify_space_words_max" ]

(* Each of the 17 rows pushed past its limit, on its own; the parallel
   row once per branch. *)
let past_limit =
  List.map
    (fun k -> (k, "REGRESSION", ingest (kernel k) (0.5 *. num ingest0 (kernel k))))
    [
      "kernel_one_sparse_ops_per_sec";
      "kernel_sparse_recovery_ops_per_sec";
      "kernel_l0_ops_per_sec";
      "kernel_agm_ops_per_sec";
    ]
  @ [
      ("metrics_enabled_overhead", "TOO HIGH", ingest metrics 0.05);
      ("tracing_enabled_overhead", "TOO HIGH", ingest tracing 0.05);
      ("arena_major_words_ratio", "TOO LOW", ingest arena_ratio 0.4);
      ( "parallel_agm_major_words_arena",
        "REGRESSION",
        ingest arena_words (3.0 *. num ingest0 arena_words) );
      ("parallel_speedup_d1 (single-core floor)", "TOO SLOW", d1 0.5);
      ("parallel_speedup_d2", "TOO SLOW", d2 1.2);
      ("serve_ingest_p99", "TOO SLOW", serve p99 300.0);
      ("serve_recovery", "TOO SLOW", serve recovery 2500.0);
      ("serve_flush", "TOO SLOW", serve flush 2500.0);
      ("recovery_streams", "EMPTY STORE", serve [ "durability"; "recovery_streams" ] 0.0);
      ("serve_obs_overhead_frac", "TOO HIGH", serve serve_obs 0.05);
      ("sparsify_pencil_ok", "OUTSIDE (1 +- eps)", sparsify [ "sparsify_pencil_ok" ] 0.0);
      ("sparsify_decode_ms_max", "TOO SLOW", sparsify decode 20000.0);
      ( "sparsify_space_words_max",
        "REGRESSION",
        sparsify space_words (2.0 *. num sparsify0 space_words) );
    ]

(* Values exactly at a limit: >= and <= pass, < fails. *)
let at_limit =
  [
    ("kernel_agm_ops_per_sec", None, ingest agm_rate (0.75 *. num ingest0 agm_rate));
    ("arena_major_words_ratio", None, ingest arena_ratio 0.5);
    ("parallel_agm_major_words_arena", None, ingest arena_words (2.0 *. num ingest0 arena_words));
    ("parallel_speedup_d1 (single-core floor)", None, d1 0.75);
    ("parallel_speedup_d2", None, d2 1.5);
    ("serve_ingest_p99", None, serve p99 250.0);
    ("serve_recovery", None, serve recovery 2000.0);
    ("serve_flush", None, serve flush 2000.0);
    ("sparsify_decode_ms_max", None, sparsify decode 15000.0);
    ("sparsify_space_words_max", None, sparsify space_words (1.1 *. num sparsify0 space_words));
    ("metrics_enabled_overhead", Some "TOO HIGH", ingest metrics 0.03);
    ("tracing_enabled_overhead", Some "TOO HIGH", ingest tracing 0.03);
    ("serve_obs_overhead_frac", Some "TOO HIGH", serve serve_obs 0.03);
  ]

let () =
  let case name f = Alcotest.test_case name `Quick f in
  let rest = List.tl (files in_bounds) in
  Alcotest.run "guard"
    [
      ( "in bounds",
        [
          case "one core" (expect_in_bounds "parallel_speedup_d1 (single-core floor)" in_bounds);
          case "two cores" (expect_in_bounds "parallel_speedup_d2" (d2 1.6));
        ] );
      ( "past the limit",
        List.map (fun (label, word, f) -> case label (expect_fail label word f)) past_limit );
      ( "at the limit",
        List.map
          (fun (label, fails, f) ->
            case label
              (match fails with
              | None -> expect_pass label f
              | Some word -> expect_fail label word f))
          at_limit );
      ( "unreadable input",
        [
          case "missing file" (expect_error rest);
          case "unparsable file" (expect_error (("BENCH_ingest.json", "{") :: rest));
          case "missing key"
            (expect_error (files { in_bounds with serve = remove recovery serve0 }));
          case "missing curve point"
            (expect_error
               (files
                  (two_cores { in_bounds with ingest = remove [ "parallel_agm"; "1" ] in_bounds.ingest })));
          case "one argument" (expect_error ~args:(fun dir -> [ dir ]) (files in_bounds));
        ] );
    ]
