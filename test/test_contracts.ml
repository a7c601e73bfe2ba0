(* API-contract tests: every documented precondition violation must raise the
   documented exception (and not, say, segfault-by-wraparound or silently
   succeed). Table-driven so that new contracts are one line to cover. *)

open Ds_util
open Ds_graph
open Ds_stream
open Ds_core

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let raises_failure f =
  try
    f ();
    false
  with Failure _ -> true

let check name ok = Alcotest.(check bool) name true ok

let test_util_contracts () =
  check "Prng.int zero bound" (raises_invalid (fun () -> ignore (Prng.int (Prng.create 1) 0)));
  check "Kwise.create k=0" (raises_invalid (fun () -> ignore (Kwise.create (Prng.create 1) ~k:0)));
  check "Kwise.to_range bound 0"
    (raises_invalid (fun () ->
         ignore (Kwise.to_range (Kwise.create (Prng.create 1) ~k:2) 5 ~bound:0)));
  check "Field.pow negative" (raises_invalid (fun () -> ignore (Field.pow 2 (-1))));
  check "Stats.histogram zero bins"
    (raises_invalid (fun () -> ignore (Stats.histogram [| 1.0 |] ~bins:0 ~lo:0.0 ~hi:1.0)));
  check "Stats.total_variation mismatch"
    (raises_invalid (fun () -> ignore (Stats.total_variation [| 1.0 |] [| 1.0; 2.0 |])))

let test_sketch_contracts () =
  let open Ds_sketch in
  check "One_sparse dim 0" (raises_invalid (fun () -> ignore (One_sparse.create (Prng.create 1) ~dim:0)));
  let os = One_sparse.create (Prng.create 1) ~dim:10 in
  check "One_sparse index out of range"
    (raises_invalid (fun () -> One_sparse.update os ~index:10 ~delta:1));
  check "Sparse_recovery sparsity 0"
    (raises_invalid (fun () ->
         ignore
           (Sparse_recovery.create (Prng.create 1) ~dim:10
              ~params:{ Sparse_recovery.sparsity = 0; rows = 3; hash_degree = 4 })));
  let a = Sparse_recovery.create (Prng.create 1) ~dim:10 ~params:(Sparse_recovery.default_params ~sparsity:2) in
  let b = Sparse_recovery.create (Prng.create 2) ~dim:20 ~params:(Sparse_recovery.default_params ~sparsity:2) in
  check "Sparse_recovery incompatible add" (raises_invalid (fun () -> Sparse_recovery.add a b));
  check "Ams_f2 needs 4-wise"
    (raises_invalid (fun () ->
         ignore
           (Ams_f2.create (Prng.create 1) ~dim:10
              ~params:{ Ams_f2.rows = 4; reps = 1; hash_degree = 2 })))

let test_graph_contracts () =
  let g = Graph.create 4 in
  check "self loop" (raises_invalid (fun () -> Graph.add_edge g 2 2));
  check "vertex out of range" (raises_invalid (fun () -> Graph.add_edge g 0 7));
  check "remove absent" (raises_invalid (fun () -> Graph.remove_edge g 0 1));
  check "graph of size 0" (raises_invalid (fun () -> ignore (Graph.create 0)));
  check "edge_index self" (raises_invalid (fun () -> ignore (Edge_index.encode ~n:5 3 3)));
  check "edge_index decode range" (raises_invalid (fun () -> ignore (Edge_index.decode ~n:5 10)));
  let wg = Weighted_graph.create 3 in
  check "weighted non-positive" (raises_invalid (fun () -> Weighted_graph.add_edge wg 0 1 0.0));
  Weighted_graph.add_edge wg 0 1 2.0;
  check "weighted duplicate" (raises_invalid (fun () -> Weighted_graph.add_edge wg 0 1 1.0));
  check "gnm too many" (raises_invalid (fun () -> ignore (Gen.gnm (Prng.create 1) ~n:3 ~m:4)));
  check "watts-strogatz bad k"
    (raises_invalid (fun () -> ignore (Gen.watts_strogatz (Prng.create 1) ~n:6 ~k:3 ~beta:0.5)))

let test_stream_contracts () =
  check "weight class gamma 0"
    (raises_invalid (fun () -> ignore (Weight_class.create ~gamma:0.0 ~w_min:1.0 ~w_max:2.0)));
  check "weight class bad range"
    (raises_invalid (fun () -> ignore (Weight_class.create ~gamma:0.5 ~w_min:2.0 ~w_max:1.0)));
  check "delete_down_to not subgraph"
    (raises_invalid (fun () ->
         ignore
           (Stream_gen.delete_down_to (Prng.create 1) ~from:(Gen.path 4) (Gen.cycle 4))));
  check "invalid stream detected" (not (Update.is_valid ~n:4 [| Update.delete 0 1 |]))

let test_core_contracts () =
  check "two-pass k=0"
    (raises_invalid (fun () ->
         ignore
           (Two_pass_spanner.run (Prng.create 1) ~n:4
              ~params:(Two_pass_spanner.default_params ~k:0)
              [||])));
  (* A pass-2 route packs two vertex ids into one word. *)
  check "two-pass n > 2^30"
    (raises_invalid (fun () ->
         ignore
           (Two_pass_spanner.run (Prng.create 1) ~n:((1 lsl 30) + 1)
              ~params:(Two_pass_spanner.default_params ~k:2)
              [||])));
  check "additive d=0"
    (raises_invalid (fun () ->
         ignore
           (Additive_spanner.run (Prng.create 1) ~n:4
              ~params:(Additive_spanner.default_params ~n:4 ~d:0)
              [||])));
  check "multipass k=0"
    (raises_invalid (fun () ->
         ignore
           (Multipass_spanner.run (Prng.create 1) ~n:4
              ~params:(Multipass_spanner.default_params ~k:0)
              [||])));
  check "ind game d=1"
    (raises_invalid (fun () ->
         ignore (Ind_game.play (Prng.create 1) ~n:4 ~d:1 ~algo_budget:1 ~trials:1)));
  check "uniform sparsifier p=0"
    (raises_invalid (fun () ->
         ignore
           (Uniform_sparsifier.run (Prng.create 1) ~p:0.0
              (Weighted_graph.of_graph (Gen.path 3)))))

let test_agm_contracts () =
  let open Ds_agm in
  check "agm n=1"
    (raises_invalid (fun () ->
         ignore (Agm_sketch.create (Prng.create 1) ~n:1 ~params:(Agm_sketch.default_params ~n:1))));
  let s = Agm_sketch.create (Prng.create 1) ~n:4 ~params:(Agm_sketch.default_params ~n:4) in
  check "agm self loop" (raises_invalid (fun () -> Agm_sketch.update s ~u:2 ~v:2 ~delta:1));
  check "agm wire garbage"
    (raises_failure (fun () -> Agm_sketch.deserialize_into s "not a sketch"));
  (* Samplers and repetitions are offsets into one buffer, read without
     bounds checks: an out-of-range vertex or copy must be refused before
     any offset is formed. *)
  let copies = Agm_sketch.copies s in
  check "agm update vertex -1" (raises_invalid (fun () -> Agm_sketch.update s ~u:(-1) ~v:2 ~delta:1));
  check "agm update vertex n" (raises_invalid (fun () -> Agm_sketch.update s ~u:1 ~v:4 ~delta:1));
  List.iter
    (fun c ->
      check
        (Printf.sprintf "agm Copy.slice %d" c)
        (raises_invalid (fun () -> ignore (Agm_sketch.Copy.slice s c)));
      check
        (Printf.sprintf "agm spanning_forest ~copies [%d]" c)
        (raises_invalid (fun () -> ignore (Agm_sketch.spanning_forest ~copies:[| c |] s))))
    [ -1; copies ]

let test_sparsify_contracts () =
  let open Ds_sparsify in
  let prm = { Level_bank.banks = 2; levels = 3; rows = 3; cols = 8; hash_degree = 4 } in
  let t = Level_bank.create (Prng.create 1) ~dim:10 ~params:prm in
  List.iter
    (fun (what, bank, level) ->
      check
        (Printf.sprintf "Level_bank.query %s" what)
        (raises_invalid (fun () -> ignore (Level_bank.query t ~bank ~level ~index:0))))
    [
      ("bank -1", -1, 0);
      ("bank = banks", prm.banks, 0);
      ("level -1", 0, -1);
      ("level = levels", 0, prm.levels);
    ]

let test_wire_corruption () =
  (* Corrupting serialized sketch bytes must fail loudly, never decode. *)
  let n = 10 in
  let open Ds_agm in
  let mk () = Agm_sketch.create (Prng.create 9) ~n ~params:(Agm_sketch.default_params ~n) in
  let a = mk () in
  Agm_sketch.update a ~u:0 ~v:1 ~delta:1;
  let bytes = Agm_sketch.serialize a in
  let truncated = String.sub bytes 0 (String.length bytes / 2) in
  check "truncated rejected"
    (raises_failure (fun () -> Agm_sketch.deserialize_into (mk ()) truncated))

let () =
  Alcotest.run "contracts"
    [
      ( "preconditions",
        [
          Alcotest.test_case "util" `Quick test_util_contracts;
          Alcotest.test_case "sketch" `Quick test_sketch_contracts;
          Alcotest.test_case "graph" `Quick test_graph_contracts;
          Alcotest.test_case "stream" `Quick test_stream_contracts;
          Alcotest.test_case "core" `Quick test_core_contracts;
          Alcotest.test_case "agm" `Quick test_agm_contracts;
          Alcotest.test_case "sparsify" `Quick test_sparsify_contracts;
          Alcotest.test_case "wire corruption" `Quick test_wire_corruption;
        ] );
    ]
