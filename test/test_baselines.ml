open Ds_util
open Ds_graph
open Ds_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let stretch_ok g spanner bound =
  let s = Stretch.multiplicative ~base:g ~spanner in
  s.Stretch.violations = 0 && s.Stretch.max <= float_of_int bound +. 1e-9

(* -------------------- Baswana–Sen -------------------- *)

let test_bs_stretch () =
  for seed = 0 to 4 do
    let g = Gen.connected_gnp (Prng.create (30 + seed)) ~n:80 ~p:0.1 in
    List.iter
      (fun k ->
        let h = Baswana_sen.run (Prng.create (100 + seed + (k * 17))) ~k g in
        check_bool "subgraph" true (Graph.is_subgraph ~sub:h ~super:g);
        check_bool
          (Printf.sprintf "BS stretch <= 2k-1 (k=%d seed=%d)" k seed)
          true
          (stretch_ok g h (Baswana_sen.stretch_bound ~k)))
      [ 1; 2; 3 ]
  done

let test_bs_k1_identity () =
  let g = Gen.connected_gnp (Prng.create 40) ~n:30 ~p:0.2 in
  check_bool "k=1 keeps everything" true (Graph.equal_edge_sets g (Baswana_sen.run (Prng.create 41) ~k:1 g))

let test_bs_compresses_clique () =
  let g = Gen.complete 64 in
  let h = Baswana_sen.run (Prng.create 42) ~k:3 g in
  check_bool "clique compressed" true (Graph.num_edges h < Graph.num_edges g / 3);
  check_bool "stretch" true (stretch_ok g h 5)

let test_bs_expected_size () =
  (* Expected size O(k n^{1+1/k}); allow a generous constant. *)
  let g = Gen.connected_gnp (Prng.create 43) ~n:100 ~p:0.4 in
  let h = Baswana_sen.run (Prng.create 44) ~k:2 g in
  let bound = 8.0 *. 2.0 *. (100.0 ** 1.5) in
  check_bool "size order" true (float_of_int (Graph.num_edges h) <= bound)

(* -------------------- Greedy -------------------- *)

let test_greedy_stretch () =
  for seed = 0 to 2 do
    let g = Gen.connected_gnp (Prng.create (50 + seed)) ~n:60 ~p:0.15 in
    List.iter
      (fun k ->
        let h = Greedy_spanner.run ~k g in
        check_bool "subgraph" true (Graph.is_subgraph ~sub:h ~super:g);
        check_bool "greedy stretch" true (stretch_ok g h ((2 * k) - 1)))
      [ 1; 2; 3 ]
  done

let test_greedy_k1_identity () =
  let g = Gen.connected_gnp (Prng.create 51) ~n:30 ~p:0.2 in
  check_bool "k=1 keeps everything" true (Graph.equal_edge_sets g (Greedy_spanner.run ~k:1 g))

let test_greedy_girth () =
  (* The greedy (2k-1)-spanner has girth > 2k: check for k = 2 that no
     4-cycles remain among spanner edges... verified via stretch instead:
     removing any spanner edge must increase its endpoints' distance above
     2k-1. This is the defining minimality property. *)
  let g = Gen.connected_gnp (Prng.create 52) ~n:40 ~p:0.3 in
  let k = 2 in
  let h = Greedy_spanner.run ~k g in
  Graph.iter_edges h (fun u v ->
      let h' = Graph.subgraph h ~keep:(fun a b -> not ((a, b) = (u, v) || (b, a) = (u, v))) in
      let d = Bfs.distance h' u v in
      check_bool "edge essential" true (d > (2 * k) - 1))

(* -------------------- Aingworth additive-2 baseline -------------------- *)

let test_aingworth_distortion () =
  for seed = 0 to 4 do
    let g = Gen.connected_gnp (Prng.create (60 + seed)) ~n:60 ~p:0.2 in
    let h = Aingworth.run g in
    check_bool "subgraph" true (Graph.is_subgraph ~sub:h ~super:g);
    let s = Stretch.additive ~base:g ~spanner:h () in
    check_int "no violations" 0 s.Stretch.violations;
    check_bool
      (Printf.sprintf "additive distortion <= 2 (seed %d, max %.0f)" seed s.Stretch.max)
      true (s.Stretch.max <= 2.0)
  done

let test_aingworth_compresses () =
  let g = Gen.complete 100 in
  let h = Aingworth.run g in
  check_bool "clique shrinks" true (Graph.num_edges h < Graph.num_edges g / 2);
  check_bool "within size bound" true
    (float_of_int (Graph.num_edges h) <= 2.0 *. Aingworth.size_bound ~n:100)

let test_aingworth_sparse_identity () =
  (* Everything is low-degree on a path: kept exactly. *)
  let g = Gen.path 30 in
  check_bool "path kept" true (Graph.equal_edge_sets g (Aingworth.run g))

(* -------------------- Weighted two-pass wrapper (Remark 14) ---------- *)

let test_weighted_spanner () =
  let rng = Prng.create 54 in
  let g0 = Gen.connected_gnp rng ~n:48 ~p:0.15 in
  let wg = Weighted_graph.create 48 in
  Graph.iter_edges g0 (fun u v ->
      Weighted_graph.add_edge wg u v (2.0 ** float_of_int (Prng.int rng 6)));
  let stream =
    Array.of_list
      (List.map
         (fun (u, v, w) -> { Ds_stream.Update.wu = u; wv = v; weight = w; wsign = Ds_stream.Update.Insert })
         (Weighted_graph.edges wg))
  in
  let gamma = 0.5 in
  let k = 2 in
  let r =
    Weighted_spanner.run (Prng.split rng) ~n:48
      ~params:(Two_pass_spanner.default_params ~k)
      ~gamma ~w_min:1.0 ~w_max:32.0 stream
  in
  check_bool "some classes ran" true (r.Weighted_spanner.classes >= 2);
  let s = Stretch.multiplicative_weighted ~base:wg ~spanner:r.Weighted_spanner.spanner in
  check_int "no violations" 0 s.Stretch.violations;
  check_bool "weighted stretch bound" true
    (s.Stretch.max <= Weighted_spanner.stretch_bound ~k ~gamma +. 1e-9)

let test_weighted_spanner_with_deletions () =
  (* The weighted model: weighted edges are inserted and later removed
     wholesale (footnote 1). Decoy weighted edges must vanish from every
     weight class. *)
  let rng = Prng.create 55 in
  let n = 40 in
  let g0 = Gen.connected_gnp rng ~n ~p:0.15 in
  let wg = Weighted_graph.create n in
  Graph.iter_edges g0 (fun u v ->
      Weighted_graph.add_edge wg u v (2.0 ** float_of_int (Prng.int rng 5)));
  let real =
    List.map
      (fun (u, v, w) -> { Ds_stream.Update.wu = u; wv = v; weight = w; wsign = Ds_stream.Update.Insert })
      (Weighted_graph.edges wg)
  in
  (* Decoys: weighted edges on pairs absent from the final graph, inserted
     then deleted with the same weight. *)
  let decoys = ref [] in
  let attempts = ref 0 in
  while List.length !decoys < 60 && !attempts < 2000 do
    incr attempts;
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v && not (Weighted_graph.mem_edge wg u v)
       && not (List.exists (fun (a, b, _) -> (min a b, max a b) = (min u v, max u v)) !decoys)
    then decoys := (u, v, 2.0 ** float_of_int (Prng.int rng 5)) :: !decoys
  done;
  let decoy_ins =
    List.map
      (fun (u, v, w) -> { Ds_stream.Update.wu = u; wv = v; weight = w; wsign = Ds_stream.Update.Insert })
      !decoys
  in
  let decoy_del =
    List.map
      (fun (u, v, w) -> { Ds_stream.Update.wu = u; wv = v; weight = w; wsign = Ds_stream.Update.Delete })
      !decoys
  in
  let stream = Array.of_list (decoy_ins @ real @ decoy_del) in
  let gamma = 0.5 and k = 2 in
  let r =
    Weighted_spanner.run (Prng.split rng) ~n
      ~params:(Two_pass_spanner.default_params ~k)
      ~gamma ~w_min:1.0 ~w_max:16.0 stream
  in
  (* No decoy edge may survive. *)
  List.iter
    (fun (u, v, _) ->
      check_bool "decoy gone" false (Weighted_graph.mem_edge r.Weighted_spanner.spanner u v))
    !decoys;
  let s = Stretch.multiplicative_weighted ~base:wg ~spanner:r.Weighted_spanner.spanner in
  check_int "no violations" 0 s.Stretch.violations;
  check_bool "weighted stretch bound under churn" true
    (s.Stretch.max <= Weighted_spanner.stretch_bound ~k ~gamma +. 1e-9)

let prop_bs_stretch =
  QCheck.Test.make ~name:"baswana-sen respects 2k-1 on random graphs" ~count:20
    QCheck.(pair small_nat (int_range 1 3))
    (fun (seed, k) ->
      let g = Gen.connected_gnp (Prng.create (seed + 600)) ~n:50 ~p:0.15 in
      let h = Baswana_sen.run (Prng.create (seed + 601)) ~k g in
      Graph.is_subgraph ~sub:h ~super:g && stretch_ok g h ((2 * k) - 1))

let () =
  Alcotest.run "baselines"
    [
      ( "baswana_sen",
        [
          Alcotest.test_case "stretch" `Slow test_bs_stretch;
          Alcotest.test_case "k=1 identity" `Quick test_bs_k1_identity;
          Alcotest.test_case "compresses clique" `Quick test_bs_compresses_clique;
          Alcotest.test_case "expected size" `Quick test_bs_expected_size;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "stretch" `Quick test_greedy_stretch;
          Alcotest.test_case "k=1 identity" `Quick test_greedy_k1_identity;
          Alcotest.test_case "edges essential" `Quick test_greedy_girth;
        ] );
      ( "aingworth",
        [
          Alcotest.test_case "distortion <= 2" `Quick test_aingworth_distortion;
          Alcotest.test_case "compresses" `Quick test_aingworth_compresses;
          Alcotest.test_case "sparse identity" `Quick test_aingworth_sparse_identity;
        ] );
      ( "weighted_spanner",
        [
          Alcotest.test_case "weight classes" `Slow test_weighted_spanner;
          Alcotest.test_case "weighted deletions" `Slow test_weighted_spanner_with_deletions;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_bs_stretch ]);
    ]
