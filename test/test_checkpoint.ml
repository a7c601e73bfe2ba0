(* Pass-boundary checkpoint/resume of the two-pass spanner: a resumed run
   must be bit-identical to an uninterrupted one, and corrupt or mismatched
   checkpoints must be rejected. *)

open Ds_util
open Ds_graph
open Ds_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let workload seed ~n =
  let rng = Prng.create seed in
  let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.08 in
  let stream = Ds_stream.Stream_gen.with_churn (Prng.split rng) ~decoys:300 g in
  (g, stream)

let edges_of g =
  let acc = ref [] in
  Graph.iter_edges g (fun u v -> acc := (min u v, max u v) :: !acc);
  List.sort compare !acc

let run_direct ~seed ~n ~k stream =
  Two_pass_spanner.run (Prng.create seed) ~n ~params:(Two_pass_spanner.default_params ~k) stream

let take_checkpoint ~seed ~n ~k stream =
  Two_pass_spanner.checkpoint (Prng.create seed) ~n
    ~params:(Two_pass_spanner.default_params ~k)
    stream

let resume_from ~seed ~n ~k ~checkpoint stream =
  Two_pass_spanner.resume (Prng.create seed) ~n
    ~params:(Two_pass_spanner.default_params ~k)
    ~checkpoint stream

let test_resume_bit_identical () =
  let n = 80 and k = 3 and seed = 42 in
  let _g, stream = workload 5 ~n in
  let direct = run_direct ~seed ~n ~k stream in
  let ck = take_checkpoint ~seed ~n ~k stream in
  let resumed = resume_from ~seed ~n ~k ~checkpoint:ck stream in
  check_bool "same spanner edge set" true
    (edges_of direct.Two_pass_spanner.spanner = edges_of resumed.Two_pass_spanner.spanner);
  check_bool "same accessed-edge set" true
    (List.sort compare direct.Two_pass_spanner.accessed_edges
    = List.sort compare resumed.Two_pass_spanner.accessed_edges);
  check_int "same space accounting" direct.Two_pass_spanner.space_words
    resumed.Two_pass_spanner.space_words;
  check_bool "same diagnostics" true
    (direct.Two_pass_spanner.diagnostics = resumed.Two_pass_spanner.diagnostics)

let test_checkpoint_deterministic () =
  let n = 64 and k = 2 and seed = 9 in
  let _g, stream = workload 6 ~n in
  let a = take_checkpoint ~seed ~n ~k stream in
  let b = take_checkpoint ~seed ~n ~k stream in
  check_bool "equal seeds give byte-identical checkpoints" true (a = b)

let fails_with_failure f =
  match f () with
  | exception Failure _ -> true
  | exception _ -> false
  | _ -> false

let test_corruption_rejected () =
  let n = 64 and k = 2 and seed = 10 in
  let _g, stream = workload 7 ~n in
  let ck = take_checkpoint ~seed ~n ~k stream in
  let rng = Prng.create 77 in
  for _ = 1 to 15 do
    let pos = Prng.int rng (String.length ck) in
    let corrupted = Bytes.of_string ck in
    Bytes.set corrupted pos (Char.chr (Char.code ck.[pos] lxor (1 lsl Prng.int rng 8)));
    check_bool "bit flip rejected" true
      (fails_with_failure (fun () ->
           resume_from ~seed ~n ~k ~checkpoint:(Bytes.to_string corrupted) stream))
  done;
  List.iter
    (fun cut ->
      check_bool "truncation rejected" true
        (fails_with_failure (fun () ->
             resume_from ~seed ~n ~k ~checkpoint:(String.sub ck 0 cut) stream)))
    [ 0; 5; String.length ck / 2; String.length ck - 1 ]

let test_mismatch_rejected () =
  let n = 64 and seed = 11 in
  let _g, stream = workload 8 ~n in
  let ck = take_checkpoint ~seed ~n ~k:2 stream in
  check_bool "different k rejected" true
    (fails_with_failure (fun () -> resume_from ~seed ~n ~k:3 ~checkpoint:ck stream))

(* The typed face of checkpoint rejection: precise error per damage class. *)
let resume_result_from ~seed ~n ~k ~checkpoint stream =
  Two_pass_spanner.resume_result (Prng.create seed) ~n
    ~params:(Two_pass_spanner.default_params ~k)
    ~checkpoint stream

let test_typed_errors () =
  let n = 64 and k = 2 and seed = 14 in
  let _g, stream = workload 15 ~n in
  let ck = take_checkpoint ~seed ~n ~k stream in
  let expect name pred = function
    | Error e -> check_bool name true (pred e)
    | Ok _ -> Alcotest.failf "%s: accepted a damaged checkpoint" name
  in
  expect "empty is truncated"
    (function Two_pass_spanner.Envelope (Envelope.Truncated _) -> true | _ -> false)
    (resume_result_from ~seed ~n ~k ~checkpoint:"" stream);
  expect "cut blob fails the checksum"
    (function Two_pass_spanner.Envelope Envelope.Checksum_mismatch -> true | _ -> false)
    (resume_result_from ~seed ~n ~k
       ~checkpoint:(String.sub ck 0 (String.length ck / 2))
       stream);
  let flipped =
    let b = Bytes.of_string ck in
    Bytes.set b 40 (Char.chr (Char.code ck.[40] lxor 4));
    Bytes.to_string b
  in
  expect "bit flip fails the checksum"
    (function Two_pass_spanner.Envelope Envelope.Checksum_mismatch -> true | _ -> false)
    (resume_result_from ~seed ~n ~k ~checkpoint:flipped stream);
  expect "wrong k is a header mismatch"
    (function Two_pass_spanner.Header_mismatch _ -> true | _ -> false)
    (resume_result_from ~seed ~n ~k:3 ~checkpoint:ck stream);
  (* A well-checksummed blob that is not a TPS1 checkpoint at all: reuse the
     linear-sketch envelope of an unrelated family. *)
  let foreign =
    Ds_sketch.(
      Linear_sketch.serialize
        (module One_sparse.Linear)
        (One_sparse.create (Prng.create 16) ~dim:10))
  in
  expect "foreign envelope rejected"
    (function
      | Two_pass_spanner.Envelope (Envelope.Wrong_magic _ | Envelope.Malformed_body _) -> true
      | _ -> false)
    (resume_result_from ~seed ~n ~k ~checkpoint:foreign stream);
  match resume_result_from ~seed ~n ~k ~checkpoint:ck stream with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "intact checkpoint rejected: %s" (Two_pass_spanner.checkpoint_error_to_string e)

(* Self-healing: a damaged checkpoint falls back to recomputing pass 1, and
   the recomputed result is bit-identical to an uninterrupted run. *)
let test_resume_or_restart () =
  let n = 64 and k = 2 and seed = 17 in
  let _g, stream = workload 18 ~n in
  let params = Two_pass_spanner.default_params ~k in
  let direct = run_direct ~seed ~n ~k stream in
  let ck = take_checkpoint ~seed ~n ~k stream in
  let same r =
    edges_of direct.Two_pass_spanner.spanner = edges_of r.Two_pass_spanner.spanner
    && direct.Two_pass_spanner.diagnostics = r.Two_pass_spanner.diagnostics
  in
  (let r, verdict =
     Two_pass_spanner.resume_or_restart (Prng.create seed) ~n ~params ~checkpoint:ck stream
   in
   check_bool "intact checkpoint resumes" true (verdict = `Resumed);
   check_bool "resumed = run" true (same r));
  let corrupt =
    let b = Bytes.of_string ck in
    Bytes.set b (String.length ck / 2) 'X';
    Bytes.to_string b
  in
  let r, verdict =
    Two_pass_spanner.resume_or_restart (Prng.create seed) ~n ~params ~checkpoint:corrupt stream
  in
  (match verdict with
  | `Recomputed (Two_pass_spanner.Envelope Envelope.Checksum_mismatch) -> ()
  | `Recomputed e ->
      Alcotest.failf "unexpected error: %s" (Two_pass_spanner.checkpoint_error_to_string e)
  | `Resumed -> Alcotest.fail "corrupt checkpoint resumed");
  check_bool "recomputed = run, bit for bit" true (same r)

let prop_resume_identical =
  QCheck.Test.make ~name:"resume = run for any seed and size" ~count:15
    QCheck.(pair (int_range 1 1000) (int_range 24 72))
    (fun (seed, n) ->
      let _g, stream = workload (seed + n) ~n in
      let k = 2 in
      let direct = run_direct ~seed ~n ~k stream in
      let ck = take_checkpoint ~seed ~n ~k stream in
      let resumed = resume_from ~seed ~n ~k ~checkpoint:ck stream in
      edges_of direct.Two_pass_spanner.spanner = edges_of resumed.Two_pass_spanner.spanner
      && direct.Two_pass_spanner.diagnostics = resumed.Two_pass_spanner.diagnostics)

let () =
  Alcotest.run "checkpoint"
    [
      ( "two_pass_spanner",
        [
          Alcotest.test_case "resume bit-identical" `Quick test_resume_bit_identical;
          Alcotest.test_case "checkpoint deterministic" `Quick test_checkpoint_deterministic;
          Alcotest.test_case "corruption rejected" `Quick test_corruption_rejected;
          Alcotest.test_case "params mismatch rejected" `Quick test_mismatch_rejected;
          Alcotest.test_case "typed errors" `Quick test_typed_errors;
          Alcotest.test_case "resume or restart" `Quick test_resume_or_restart;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_resume_identical ]);
    ]
