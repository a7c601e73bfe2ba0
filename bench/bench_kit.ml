(* What the bench programs share: the stamp every BENCH_*.json carries,
   the one way to write such a file, a monotonic stopwatch and temp dirs
   that remove themselves. *)

module Json = Ds_util.Json

let git_sha () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some s when s <> "" -> s
  | _ -> (
      try
        let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
        let line = try input_line ic with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "unknown"
      with Unix.Unix_error _ | Sys_error _ -> "unknown")

let iso8601_utc () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

(* The stamp keys first, then [fields]: a number is only comparable with
   another taken on the same kind of host, word kernel and build
   profile (the dev profile's -opaque hides the kernel speedups). *)
let document ~schema fields =
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("git_sha", Json.Str (git_sha ()));
       ("date", Json.Str (iso8601_utc ()));
       ("host_cores", Json.int (Domain.recommended_domain_count ()));
       ("words_kernel", Json.Str Ds_util.Words.kernel);
       ("profile", Json.Str Build_info.profile);
     ]
    @ fields)

let write ~path doc =
  Ds_util.Durable.write_atomic ~path (Json.to_string doc ^ "\n");
  Printf.printf "wrote %s\n%!" path

(* [v] rounded to [digits] decimals: the trajectory files keep the
   precision they have always been written with. *)
let fixed digits v =
  let scale = 10.0 ** float_of_int digits in
  Json.Num (Float.round (v *. scale) /. scale)

(* Seconds since [t0], a [Ds_obs.Clock.now_ns] reading (CLOCK_MONOTONIC,
   which NTP cannot step). *)
let seconds_since t0 = Int64.to_float (Ds_obs.Clock.elapsed_ns t0) /. 1e9

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* [with_temp_dir prefix f] is [f dir] for a new empty directory under the
   system temp dir, which is removed with everything in it when [f]
   returns or raises.  A child that [f] forks must end in [Unix._exit],
   or it would remove the directory too. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)
