open Ds_util
open Ds_graph
open Ds_stream
open Ds_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_additive ?(decoys = 200) ~d ~seed g =
  let n = Graph.n g in
  let rng = Prng.create seed in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys g in
  Additive_spanner.run (Prng.split rng) ~n
    ~params:(Additive_spanner.default_params ~n ~d)
    stream

let test_subgraph_and_distortion () =
  List.iter
    (fun (seed, d, p) ->
      let g = Gen.connected_gnp (Prng.create seed) ~n:80 ~p in
      let r = run_additive ~d ~seed:(seed * 3) g in
      check_bool "subgraph" true (Graph.is_subgraph ~sub:r.Additive_spanner.spanner ~super:g);
      let s = Stretch.additive ~base:g ~spanner:r.Additive_spanner.spanner () in
      check_int "no violations" 0 s.Stretch.violations;
      check_bool "surplus within bound" true
        (s.Stretch.max <= Additive_spanner.distortion_bound ~n:80 ~d))
    [ (1, 2, 0.1); (2, 4, 0.2); (3, 4, 0.4); (4, 8, 0.3) ]

let test_dense_compresses () =
  let g = Gen.complete 64 in
  let r = run_additive ~d:8 ~seed:10 g in
  check_bool "clique compressed" true
    (Graph.num_edges r.Additive_spanner.spanner < Graph.num_edges g / 4);
  let s = Stretch.additive ~base:g ~spanner:r.Additive_spanner.spanner () in
  check_int "still connected" 0 s.Stretch.violations

let test_low_degree_exact () =
  (* A path is all low-degree: the spanner is the whole graph, distortion 0. *)
  let g = Gen.path 64 in
  let r = run_additive ~d:4 ~seed:11 g in
  check_bool "path kept exactly" true (Graph.equal_edge_sets g r.Additive_spanner.spanner);
  check_int "all classified low" 64 r.Additive_spanner.diagnostics.Additive_spanner.low_degree

let test_heavy_deletion () =
  let n = 48 in
  let target = Gen.connected_gnp (Prng.create 12) ~n ~p:0.1 in
  let stream = Stream_gen.delete_down_to (Prng.create 13) ~from:(Gen.complete n) target in
  let r =
    Additive_spanner.run (Prng.create 14) ~n
      ~params:(Additive_spanner.default_params ~n ~d:4)
      stream
  in
  check_bool "subgraph of remnant" true
    (Graph.is_subgraph ~sub:r.Additive_spanner.spanner ~super:target);
  let s = Stretch.additive ~base:target ~spanner:r.Additive_spanner.spanner () in
  check_int "no violations after deletions" 0 s.Stretch.violations

let test_disconnected_preserved () =
  let g = Gen.disjoint_cliques (Prng.create 15) ~count:3 ~size:12 in
  let r = run_additive ~d:4 ~seed:16 g in
  check_int "components preserved" 3 (Components.count r.Additive_spanner.spanner)

let test_space_scales_with_d () =
  let g = Gen.connected_gnp (Prng.create 17) ~n:64 ~p:0.2 in
  let r2 = run_additive ~d:2 ~seed:18 g in
  let r8 = run_additive ~d:8 ~seed:18 g in
  check_bool "space grows with d" true
    (r8.Additive_spanner.space_words > r2.Additive_spanner.space_words)

let prop_additive =
  QCheck.Test.make ~name:"additive spanner surplus bounded on random graphs" ~count:10
    QCheck.(pair small_nat (int_range 2 6))
    (fun (seed, d) ->
      let g = Gen.connected_gnp (Prng.create (seed + 70)) ~n:48 ~p:0.15 in
      let r = run_additive ~d ~seed:(seed + 71) ~decoys:100 g in
      let s = Stretch.additive ~base:g ~spanner:r.Additive_spanner.spanner () in
      Graph.is_subgraph ~sub:r.Additive_spanner.spanner ~super:g
      && s.Stretch.violations = 0
      && s.Stretch.max <= Additive_spanner.distortion_bound ~n:48 ~d)

(* -------------------- IND game (Theorem 4) -------------------- *)

let test_ind_high_budget_wins () =
  let o =
    Ind_game.play (Prng.create 20) ~n:24 ~d:6 ~algo_budget:8 ~trials:20
  in
  check_bool "high budget succeeds mostly" true (Ind_game.success_rate o >= 0.85)

let test_ind_budget_monotone () =
  (* Success with a starved budget must not beat a generous one by much. *)
  let lo = Ind_game.play (Prng.create 21) ~n:24 ~d:8 ~algo_budget:1 ~trials:25 in
  let hi = Ind_game.play (Prng.create 22) ~n:24 ~d:8 ~algo_budget:10 ~trials:25 in
  check_bool "space monotone" true (hi.Ind_game.mean_space_words > lo.Ind_game.mean_space_words);
  check_bool "budget helps" true
    (Ind_game.success_rate hi +. 0.15 >= Ind_game.success_rate lo)

let () =
  Alcotest.run "additive"
    [
      ( "additive_spanner",
        [
          Alcotest.test_case "distortion bound" `Slow test_subgraph_and_distortion;
          Alcotest.test_case "dense compresses" `Quick test_dense_compresses;
          Alcotest.test_case "low degree exact" `Quick test_low_degree_exact;
          Alcotest.test_case "heavy deletion" `Quick test_heavy_deletion;
          Alcotest.test_case "disconnected" `Quick test_disconnected_preserved;
          Alcotest.test_case "space scales" `Quick test_space_scales_with_d;
        ] );
      ( "ind_game",
        [
          Alcotest.test_case "high budget wins" `Slow test_ind_high_budget_wins;
          Alcotest.test_case "budget monotone" `Slow test_ind_budget_monotone;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_additive ]);
    ]
