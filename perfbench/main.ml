(* The repository benchmark: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--smoke] [--spec BENCHMARK.json] [--dynospan PATH] [--scratch DIR]

   Prints a stamp, every metric with its unit and sample count, every
   output check, and as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when an
   output check fails.  See README.md for the workloads and metrics. *)

(* The declared end-to-end and per-layer metrics, as (name, unit), and
   the workload names, as BENCHMARK.json lists them: a run must report
   every metric of its mode and no other. *)
let read_spec file =
  let open Ds_util.Json in
  let spec =
    match parse (In_channel.with_open_bin file In_channel.input_all) with
    | Ok j -> j
    | Error m -> failwith ("perfbench: " ^ file ^ ": " ^ m)
  in
  let field name j =
    match Option.bind (member name j) to_str with
    | Some s -> s
    | None -> failwith ("perfbench: " ^ file ^ ": entry without " ^ name)
  in
  let entries key =
    match Option.bind (member key spec) to_list with
    | Some l -> l
    | None -> failwith ("perfbench: " ^ file ^ ": no " ^ key)
  in
  let metrics key = List.map (fun m -> (field "name" m, field "unit" m)) (entries key) in
  (metrics "end_to_end", metrics "per_layer", List.map (field "name") (entries "workloads"))

let git_sha () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some s when s <> "" -> s
  | _ when not (Sys.file_exists ".git") -> "unknown"
  | _ -> (
      try
        let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
        let line = try input_line ic with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "unknown"
      with Unix.Unix_error _ | Sys_error _ -> "unknown")

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke] \
     [--spec BENCHMARK.json] [--dynospan PATH] [--scratch DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let smoke = ref false and spec = ref "BENCHMARK.json" in
  let dynospan = ref "" and scratch = ref ".perfbench" in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--spec" :: v :: rest ->
        spec := v;
        parse rest
    | "--dynospan" :: v :: rest ->
        dynospan := v;
        parse rest
    | "--scratch" :: v :: rest ->
        scratch := v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let end_to_end, per_layer, workloads = read_spec !spec in
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some a, Some b, Some c when List.mem !workload workloads -> (a, b, c)
    | _ -> usage ()
  in
  if !workload = "serve-zipf" && not (Sys.file_exists !dynospan) then begin
    prerr_endline "perfbench: serve-zipf needs --dynospan PATH to a built dynospan";
    exit 2
  end;
  Printf.printf "perfbench %s: seed=%d seconds=%g trace=%d size=%s\n%!" !workload seed seconds
    (if trace then 1 else 0)
    (if !smoke then "smoke" else "full");
  Printf.printf "stamp: git=%s host_cores=%d words_kernel=%s profile=%s%s\n%!" (git_sha ())
    (Domain.recommended_domain_count ()) Ds_util.Words.kernel Build_info.profile
    (if Build_info.profile = "release" then ""
     else "  WARNING: not a release build (-opaque); timings are not comparable");
  let smoke = !smoke in
  let o =
    match !workload with
    | "spanner-churn" -> Spanner_churn.run ~smoke ~seed ~seconds ~trace
    | "sparsify1p" -> Sparsify_chain.run ~smoke ~seed ~seconds ~trace
    | "forest-par" -> Forest_par.run ~smoke ~seed ~seconds ~trace
    | "serve-zipf" ->
        Serve_zipf.run ~smoke ~seed ~seconds ~trace ~dynospan:!dynospan ~scratch:!scratch
    | w -> failwith ("perfbench: no workload " ^ w)
  in
  let pp (m : Harness.metric) =
    Printf.printf "  %-40s %16.6g %-10s (n=%d)\n" m.Harness.name m.Harness.value m.Harness.unit_
      m.Harness.samples
  in
  Printf.printf "inputs: %016Lx\n" o.Harness.inputs;
  List.iter print_endline o.Harness.notes;
  print_endline "end-to-end:";
  List.iter pp (o.Harness.e2e @ o.Harness.extra);
  let declared, reported =
    if trace then begin
      print_endline "per-layer:";
      (* Every workload reports every layer; a layer a workload does not
         exercise reads 0 there. *)
      let layers =
        List.map
          (fun (name, unit_) ->
            match List.find_opt (fun m -> m.Harness.name = name) o.Harness.layers with
            | Some m -> m
            | None -> Harness.metric ~samples:0 name unit_ 0.0)
          per_layer
      in
      List.iter pp layers;
      (per_layer, layers)
    end
    else (end_to_end, o.Harness.e2e)
  in
  List.iter
    (fun (m : Harness.metric) ->
      if List.assoc_opt m.Harness.name declared <> Some m.Harness.unit_ then
        failwith ("perfbench: undeclared metric " ^ m.Harness.name))
    reported;
  if List.length reported <> List.length declared then failwith "perfbench: metric missing";
  List.iter
    (fun c ->
      Printf.printf "check %-4s %s: %s\n" (if c.Harness.ok then "ok" else "FAIL") c.Harness.what
        c.Harness.detail)
    o.Harness.checks;
  let correct = List.for_all (fun c -> c.Harness.ok) o.Harness.checks && o.Harness.failed = 0 in
  let open Ds_util.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Num (float_of_int o.Harness.attempted));
            ("failed", Num (float_of_int o.Harness.failed));
            ( "metrics",
              Obj
                (List.map
                   (fun (m : Harness.metric) ->
                     ( m.Harness.name,
                       Obj [ ("value", Num m.Harness.value); ("unit", Str m.Harness.unit_) ] ))
                   reported) );
          ]));
  if not correct then exit 1
