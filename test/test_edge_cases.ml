(* Boundary conditions: the smallest legal inputs, empty results, and
   parameters at the extremes of their ranges. Streaming algorithms break at
   boundaries more often than in the bulk. *)

open Ds_util
open Ds_graph
open Ds_stream
open Ds_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let two_pass ~n ~k stream =
  Two_pass_spanner.run (Prng.create 7) ~n ~params:(Two_pass_spanner.default_params ~k) stream

let test_single_edge () =
  let stream = [| Update.insert 0 1 |] in
  let r = two_pass ~n:2 ~k:2 stream in
  check_int "the edge is kept" 1 (Graph.num_edges r.Two_pass_spanner.spanner);
  check_bool "it is the right edge" true (Graph.mem_edge r.Two_pass_spanner.spanner 0 1)

let test_edge_inserted_and_deleted () =
  let stream = [| Update.insert 0 1; Update.delete 0 1 |] in
  let r = two_pass ~n:2 ~k:2 stream in
  check_int "nothing survives" 0 (Graph.num_edges r.Two_pass_spanner.spanner)

let test_triangle_all_k () =
  let g = Gen.complete 3 in
  let stream = Stream_gen.insert_only (Prng.create 1) g in
  List.iter
    (fun k ->
      let r = two_pass ~n:3 ~k stream in
      let s = Stretch.multiplicative ~base:g ~spanner:r.Two_pass_spanner.spanner in
      check_bool
        (Printf.sprintf "triangle k=%d" k)
        true
        (s.Stretch.violations = 0 && s.Stretch.max <= float_of_int (1 lsl k)))
    [ 1; 2; 3; 5 ]

let test_k_exceeds_log_n () =
  (* k far above log2 n: all center levels above 0 are usually empty; the
     algorithm must still produce a valid spanner. *)
  let g = Gen.connected_gnp (Prng.create 2) ~n:12 ~p:0.3 in
  let stream = Stream_gen.insert_only (Prng.create 3) g in
  let r = two_pass ~n:12 ~k:8 stream in
  let s = Stretch.multiplicative ~base:g ~spanner:r.Two_pass_spanner.spanner in
  check_int "still no violations" 0 s.Stretch.violations

let test_multiplicity_saturation () =
  (* One edge at multiplicity 50, partially deleted. *)
  let inserts = Array.make 50 (Update.insert 0 1) in
  let deletes = Array.make 49 (Update.delete 0 1) in
  let r = two_pass ~n:2 ~k:1 (Array.append inserts deletes) in
  check_bool "edge with residual multiplicity kept" true
    (Graph.mem_edge r.Two_pass_spanner.spanner 0 1)

let test_additive_small_n () =
  let g = Gen.complete 4 in
  let stream = Stream_gen.insert_only (Prng.create 4) g in
  let r =
    Additive_spanner.run (Prng.create 5) ~n:4
      ~params:(Additive_spanner.default_params ~n:4 ~d:2)
      stream
  in
  let s = Stretch.additive ~base:g ~spanner:r.Additive_spanner.spanner () in
  check_int "connected" 0 s.Stretch.violations

let test_additive_d_exceeds_n () =
  (* d > n: threshold above every possible degree, so everything is
     low-degree and the graph is kept exactly. *)
  let g = Gen.connected_gnp (Prng.create 6) ~n:16 ~p:0.3 in
  let stream = Stream_gen.insert_only (Prng.create 7) g in
  let r =
    Additive_spanner.run (Prng.create 8) ~n:16
      ~params:(Additive_spanner.default_params ~n:16 ~d:64)
      stream
  in
  check_bool "kept exactly" true (Graph.equal_edge_sets g r.Additive_spanner.spanner)

let test_empty_stream_everything () =
  let n = 8 in
  check_int "two-pass" 0 (Graph.num_edges (two_pass ~n ~k:2 [||]).Two_pass_spanner.spanner);
  let ra =
    Additive_spanner.run (Prng.create 9) ~n
      ~params:(Additive_spanner.default_params ~n ~d:2)
      [||]
  in
  check_int "additive" 0 (Graph.num_edges ra.Additive_spanner.spanner);
  let rm =
    Multipass_spanner.run (Prng.create 10) ~n ~params:(Multipass_spanner.default_params ~k:2) [||]
  in
  check_int "multipass" 0 (Graph.num_edges rm.Multipass_spanner.spanner);
  let rs =
    Sparsify.run (Prng.create 11) ~n ~params:(Sparsify.default_params ~k:2 ~eps:0.5 ~n) [||]
  in
  check_int "sparsifier" 0 (Weighted_graph.num_edges rs.Sparsify.sparsifier)

let test_star_graph_spanner () =
  (* A star: every edge is a bridge, so every spanner keeps all edges. *)
  let g = Gen.star 20 in
  let stream = Stream_gen.with_churn (Prng.create 12) ~decoys:40 g in
  List.iter
    (fun k ->
      let r = two_pass ~n:20 ~k stream in
      check_bool
        (Printf.sprintf "star kept whole at k=%d" k)
        true
        (Graph.equal_edge_sets g r.Two_pass_spanner.spanner))
    [ 1; 2; 3 ]

let test_two_components_two_pass () =
  let g = Gen.disjoint_cliques (Prng.create 13) ~count:2 ~size:5 in
  let stream = Stream_gen.insert_only (Prng.create 14) g in
  let r = two_pass ~n:10 ~k:2 stream in
  check_int "components preserved" 2 (Components.count r.Two_pass_spanner.spanner)

let () =
  Alcotest.run "edge_cases"
    [
      ( "two_pass",
        [
          Alcotest.test_case "single edge" `Quick test_single_edge;
          Alcotest.test_case "insert+delete" `Quick test_edge_inserted_and_deleted;
          Alcotest.test_case "triangle all k" `Quick test_triangle_all_k;
          Alcotest.test_case "k > log n" `Quick test_k_exceeds_log_n;
          Alcotest.test_case "multiplicity saturation" `Quick test_multiplicity_saturation;
          Alcotest.test_case "star graph" `Quick test_star_graph_spanner;
          Alcotest.test_case "two components" `Quick test_two_components_two_pass;
        ] );
      ( "others",
        [
          Alcotest.test_case "additive small n" `Quick test_additive_small_n;
          Alcotest.test_case "additive d > n" `Quick test_additive_d_exceeds_n;
          Alcotest.test_case "empty stream everywhere" `Quick test_empty_stream_everything;
        ] );
    ]
