open Ds_util
open Ds_graph
open Ds_stream

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_update_apply () =
  let g = Graph.create 4 in
  Update.apply g (Update.insert 0 1);
  Update.apply g (Update.insert 0 1);
  Update.apply g (Update.delete 0 1);
  check_int "multiplicity" 1 (Graph.multiplicity g 0 1);
  check_int "delta insert" 1 (Update.delta (Update.insert 0 1));
  check_int "delta delete" (-1) (Update.delta (Update.delete 0 1))

let test_insert_only () =
  let g = Gen.connected_gnp (Prng.create 1) ~n:30 ~p:0.1 in
  let s = Stream_gen.insert_only (Prng.create 2) g in
  check_int "length = edges" (Graph.num_edges g) (Array.length s);
  check_bool "valid" true (Update.is_valid ~n:30 s);
  check_bool "ends at g" true (Graph.equal_edge_sets g (Update.final_graph ~n:30 s))

let test_with_churn () =
  for seed = 0 to 9 do
    let rng = Prng.create seed in
    let g = Gen.connected_gnp rng ~n:25 ~p:0.1 in
    let s = Stream_gen.with_churn (Prng.split rng) ~decoys:80 g in
    check_bool "valid" true (Update.is_valid ~n:25 s);
    check_bool "ends at g" true (Graph.equal_edge_sets g (Update.final_graph ~n:25 s));
    check_bool "has deletions" true
      (Array.exists (fun u -> u.Update.sign = Update.Delete) s)
  done

let test_delete_down_to () =
  let from = Gen.complete 12 in
  let target = Gen.path 12 in
  let s = Stream_gen.delete_down_to (Prng.create 3) ~from target in
  check_bool "valid" true (Update.is_valid ~n:12 s);
  check_bool "ends at target" true
    (Graph.equal_edge_sets target (Update.final_graph ~n:12 s));
  check_int "length" (66 + (66 - 11)) (Array.length s)

let test_multiplicity_churn () =
  let g = Gen.cycle 8 in
  let s = Stream_gen.multiplicity_churn (Prng.create 4) ~copies:3 g in
  check_bool "valid" true (Update.is_valid ~n:8 s);
  let final = Update.final_graph ~n:8 s in
  check_bool "same edges" true (Graph.equal_edge_sets g final);
  Graph.iter_edges final (fun u v ->
      check_int "multiplicity 1 at end" 1 (Graph.multiplicity final u v))

let test_interleave_preserves_order () =
  let a = [| Update.insert 0 1; Update.insert 0 2 |] in
  let b = [| Update.insert 1 2 |] in
  let s = Stream_gen.interleave (Prng.create 5) a b in
  check_int "total" 3 (Array.length s);
  let pos u = ref (-1) |> fun r ->
    Array.iteri (fun i x -> if x = u then r := i) s;
    !r
  in
  check_bool "a order kept" true (pos a.(0) < pos a.(1))

let test_flapping () =
  let g = Gen.connected_gnp (Prng.create 6) ~n:20 ~p:0.15 in
  let s = Stream_gen.flapping (Prng.create 7) ~flaps:50 g in
  check_bool "valid" true (Update.is_valid ~n:20 s);
  let final = Update.final_graph ~n:20 s in
  check_bool "ends at g" true (Graph.equal_edge_sets g final);
  Graph.iter_edges final (fun u v ->
      check_int "multiplicity restored" 1 (Graph.multiplicity final u v));
  check_int "length" (Graph.num_edges g + 100) (Array.length s)

let test_sliding_window () =
  let rng = Prng.create 8 in
  let snaps = List.init 5 (fun i -> Gen.gnm (Prng.create (100 + i)) ~n:15 ~m:20) in
  let window = 2 in
  let s = Stream_gen.sliding_window (Prng.split rng) ~window snaps in
  check_bool "valid" true (Update.is_valid ~n:15 s);
  let final = Update.final_graph ~n:15 s in
  (* Final distinct edges = union of the last [window] snapshots. *)
  let expected =
    List.fold_left Graph.union (Graph.create 15)
      (List.filteri (fun i _ -> i >= List.length snaps - window) snaps)
  in
  check_bool "window union" true (Graph.equal_edge_sets expected final)

let test_sliding_window_size_mismatch () =
  Alcotest.check_raises "mismatched snapshots"
    (Invalid_argument "Stream_gen.sliding_window: snapshots must share the vertex set")
    (fun () ->
      ignore (Stream_gen.sliding_window (Prng.create 9) ~window:1 [ Gen.path 4; Gen.path 5 ]))

let prop_churn_valid =
  QCheck.Test.make ~name:"with_churn always yields a valid stream ending at g" ~count:50
    QCheck.(pair small_nat (int_range 0 100))
    (fun (seed, decoys) ->
      let rng = Prng.create (seed + 100) in
      let g = Gen.gnp rng ~n:15 ~p:0.2 in
      let s = Stream_gen.with_churn (Prng.split rng) ~decoys g in
      Update.is_valid ~n:15 s
      && Graph.equal_edge_sets g (Update.final_graph ~n:15 s))

(* -------------------- Weight classes -------------------- *)

let test_weight_class_bounds () =
  let wc = Weight_class.create ~gamma:0.5 ~w_min:1.0 ~w_max:100.0 in
  check_bool "enough classes" true (Weight_class.num_classes wc >= 12);
  check_int "min class" 0 (Weight_class.class_of wc 1.0);
  check_int "clamp below" 0 (Weight_class.class_of wc 0.01);
  check_int "clamp above"
    (Weight_class.num_classes wc - 1)
    (Weight_class.class_of wc 1e9)

let test_weight_class_rounding () =
  let wc = Weight_class.create ~gamma:0.25 ~w_min:1.0 ~w_max:64.0 in
  (* Every representative is within (1 + gamma) of the weights it covers. *)
  let ws = [ 1.0; 1.7; 3.14; 10.0; 42.0; 63.9 ] in
  List.iter
    (fun w ->
      let r = Weight_class.representative wc (Weight_class.class_of wc w) in
      let ratio = if r > w then r /. w else w /. r in
      check_bool "rounding error bounded" true
        (ratio <= Weight_class.max_rounding_error wc +. 1e-9))
    ws

let test_weight_class_split () =
  let wc = Weight_class.create ~gamma:1.0 ~w_min:1.0 ~w_max:8.0 in
  let stream =
    [|
      { Update.wu = 0; wv = 1; weight = 1.0; wsign = Update.Insert };
      { Update.wu = 1; wv = 2; weight = 8.0; wsign = Update.Insert };
      { Update.wu = 0; wv = 1; weight = 1.0; wsign = Update.Delete };
    |]
  in
  let classes = Weight_class.split wc stream in
  check_int "class count" (Weight_class.num_classes wc) (Array.length classes);
  check_int "light class got insert+delete" 2 (Array.length classes.(0));
  let heavy = Weight_class.class_of wc 8.0 in
  check_int "heavy class got one" 1 (Array.length classes.(heavy));
  (* Each class stream is itself valid. *)
  Array.iter (fun s -> check_bool "class stream valid" true (Update.is_valid ~n:3 s)) classes

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_churn_valid ]

let () =
  Alcotest.run "stream"
    [
      ( "updates",
        [
          Alcotest.test_case "apply" `Quick test_update_apply;
          Alcotest.test_case "insert only" `Quick test_insert_only;
          Alcotest.test_case "with churn" `Quick test_with_churn;
          Alcotest.test_case "delete down to" `Quick test_delete_down_to;
          Alcotest.test_case "multiplicity churn" `Quick test_multiplicity_churn;
          Alcotest.test_case "interleave order" `Quick test_interleave_preserves_order;
          Alcotest.test_case "flapping" `Quick test_flapping;
          Alcotest.test_case "sliding window" `Quick test_sliding_window;
          Alcotest.test_case "sliding window mismatch" `Quick test_sliding_window_size_mismatch;
        ] );
      ( "weight_classes",
        [
          Alcotest.test_case "bounds" `Quick test_weight_class_bounds;
          Alcotest.test_case "rounding" `Quick test_weight_class_rounding;
          Alcotest.test_case "split" `Quick test_weight_class_split;
        ] );
      ("properties", qcheck_cases);
    ]
