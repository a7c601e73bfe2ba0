(* Smoke test of the benchmark: every workload at its smoke size, in both
   modes, exits 0, passes every output check and prints every metric
   BENCHMARK.json declares for that mode, with its unit; the seed changes
   the generated inputs and nothing else does. *)

open Ds_util

let scratch = "smoke-scratch"

let run args =
  let paths =
    [ "--spec"; "../BENCHMARK.json"; "--dynospan"; "../bin/dynospan.exe"; "--scratch"; scratch ]
  in
  let argv = Array.of_list (("./main.exe" :: args) @ paths) in
  let ic = Unix.open_process_args_in "./main.exe" argv in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ ->
      List.iter prerr_endline out;
      failwith ("smoke: failed: " ^ String.concat " " args)

let get path j =
  match Json.path path j with
  | Some v -> v
  | None -> failwith ("smoke: missing " ^ String.concat "." path)

let declared spec key =
  List.map
    (fun m ->
      ( Option.get (Json.to_str (get [ "name" ] m)),
        Option.get (Json.to_str (get [ "unit" ] m)) ))
    (Option.get (Json.to_list (get [ key ] spec)))

let inputs out =
  match List.find_opt (fun l -> String.length l > 8 && String.sub l 0 8 = "inputs: ") out with
  | Some l -> l
  | None -> failwith "smoke: no inputs line"

let () =
  let spec =
    match Json.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error m -> failwith ("smoke: BENCHMARK.json: " ^ m)
  in
  let workloads =
    List.map
      (fun w -> Option.get (Json.to_str (get [ "name" ] w)))
      (Option.get (Json.to_list (get [ "workloads" ] spec)))
  in
  let check ~workload ~trace out =
    let result =
      match Json.parse (List.nth out (List.length out - 1)) with
      | Ok j -> j
      | Error m -> failwith ("smoke: last line is not JSON: " ^ m)
    in
    let fail what = failwith (Printf.sprintf "smoke: %s trace=%d: %s" workload trace what) in
    if Json.member "correct" result <> Some (Json.Bool true) then fail "not correct";
    if Option.bind (Json.member "failed" result) Json.to_int <> Some 0 then fail "failed ops";
    (match Option.bind (Json.member "attempted" result) Json.to_int with
    | Some a when a >= 1 -> ()
    | _ -> fail "nothing attempted");
    let metrics = Option.get (Json.to_obj (get [ "metrics" ] result)) in
    let want = declared spec (if trace = 1 then "per_layer" else "end_to_end") in
    if List.length metrics <> List.length want then fail "wrong number of metrics";
    List.iter
      (fun (name, unit_) ->
        match List.assoc_opt name metrics with
        | None -> fail ("missing " ^ name)
        | Some m ->
            if Option.bind (Json.member "unit" m) Json.to_str <> Some unit_ then
              fail ("unit of " ^ name);
            if Option.bind (Json.member "value" m) Json.to_float = None then
              fail ("value of " ^ name))
      want
  in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let out =
            run
              [
                "--workload"; workload; "--seed"; "7"; "--seconds"; "0.2"; "--trace";
                string_of_int trace; "--smoke";
              ]
          in
          check ~workload ~trace out;
          Printf.printf "smoke: %s trace=%d ok\n%!" workload trace)
        [ 0; 1 ])
    workloads;
  let digest seed =
    inputs
      (run
         [
           "--workload"; "spanner-churn"; "--seed"; seed; "--seconds"; "0"; "--trace"; "0";
           "--smoke";
         ])
  in
  if digest "1" <> digest "1" then failwith "smoke: equal seeds gave different inputs";
  if digest "1" = digest "2" then failwith "smoke: the seed does not change the inputs";
  if Sys.file_exists scratch then Unix.rmdir scratch;
  print_endline "smoke: seeds ok"
