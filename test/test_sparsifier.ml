open Ds_util
open Ds_graph
open Ds_linalg
open Ds_stream
open Ds_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Small, fast parameters for tests; the bench sweeps real budgets. With
   J = 3 repetitions the far-vote needs lambda > 1/3 so that one unlucky
   repetition cannot push q_hat down a level. *)
let fast_params ~n =
  let base = Sparsify.default_params ~k:2 ~eps:0.5 ~n in
  {
    base with
    Sparsify.z_rounds = 8;
    oversample_shift = 3;
    estimate = { base.Sparsify.estimate with Estimate.j_reps = 3; t_levels = 10; lambda = 0.34 };
  }

(* -------------------- Estimate -------------------- *)

let test_estimate_orders_resistances () =
  (* On a lollipop, the path edges have resistance ~1 and the clique edges
     ~2/m: the oracle must give path edges a denser (smaller) level. *)
  let g = Gen.lollipop 12 10 in
  let n = Graph.n g in
  let stream = Stream_gen.insert_only (Prng.create 1) g in
  let prm = (fast_params ~n).Sparsify.estimate in
  let est = Estimate.build (Prng.create 2) ~n ~params:prm stream in
  let path_level = Estimate.query est 15 16 in
  let clique_level = Estimate.query est 0 1 in
  check_bool "bridge-ish edges denser" true (path_level < clique_level);
  check_bool "levels start at 1" true (path_level >= 1)

let test_estimate_correlates_with_resistance () =
  (* Lemma 19 ([KP12]): q_hat = Omega(R_e / alpha^2). Empirically the oracle
     levels should correlate with -log2(R_e): higher-resistance edges get
     denser (smaller) levels. Spearman-style check: mean level of the
     top-resistance tercile < mean level of the bottom tercile. *)
  let g = Gen.lollipop 14 12 in
  let n = Graph.n g in
  let wg = Weighted_graph.of_graph g in
  let stream = Stream_gen.insert_only (Prng.create 50) g in
  let prm = (fast_params ~n).Sparsify.estimate in
  let est = Estimate.build (Prng.create 51) ~n ~params:prm stream in
  let rows =
    List.map
      (fun (u, v, _, r) -> (r, float_of_int (Estimate.query est u v)))
      (Resistance.all_edges wg)
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare b a) rows in
  let k = List.length sorted / 3 in
  let take l n = List.filteri (fun i _ -> i < n) l in
  let top = take sorted k and bottom = take (List.rev sorted) k in
  let mean l = Stats.mean (Array.of_list (List.map snd l)) in
  check_bool
    (Printf.sprintf "high-R edges denser: %.2f < %.2f" (mean top) (mean bottom))
    true
    (mean top < mean bottom)

let test_estimate_exact_mode () =
  let g = Gen.lollipop 12 10 in
  let n = Graph.n g in
  let stream = Stream_gen.insert_only (Prng.create 3) g in
  let prm = { (fast_params ~n).Sparsify.estimate with Estimate.mode = Estimate.Exact_resistance } in
  let est = Estimate.build (Prng.create 4) ~n ~params:prm stream in
  (* Path edge: R = 1 -> q clamped to 1/2 -> level 1. *)
  check_int "path edge level" 1 (Estimate.query est 15 16);
  (* Clique edge: R ~ 2/12 -> level ~ round(log2(6)) = 3. *)
  let l = Estimate.query est 0 1 in
  check_bool "clique edge sparser" true (l >= 2 && l <= 5)

(* -------------------- Sample / Sparsify -------------------- *)

let pencil g h =
  Spectral.pencil_bounds ~base:(Weighted_graph.of_graph g) ~candidate:h

let test_sparsify_quality () =
  let n = 48 in
  let rng = Prng.create 5 in
  let g = Gen.connected_gnp rng ~n ~p:0.3 in
  let stream = Stream_gen.insert_only (Prng.split rng) g in
  let r = Sparsify.run (Prng.split rng) ~n ~params:(fast_params ~n) stream in
  let b = pencil g r.Sparsify.sparsifier in
  check_bool "no kernel leak" true (b.Spectral.kernel_leak < 1e-6);
  check_bool
    (Printf.sprintf "lambda_min %.3f reasonable" b.Spectral.lambda_min)
    true (b.Spectral.lambda_min > 0.2);
  check_bool
    (Printf.sprintf "lambda_max %.3f reasonable" b.Spectral.lambda_max)
    true (b.Spectral.lambda_max < 3.0)

let test_sparsify_under_churn () =
  let n = 40 in
  let rng = Prng.create 6 in
  let g = Gen.connected_gnp rng ~n ~p:0.3 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:200 g in
  let r = Sparsify.run (Prng.split rng) ~n ~params:(fast_params ~n) stream in
  let b = pencil g r.Sparsify.sparsifier in
  check_bool "connected approximation" true (b.Spectral.lambda_min > 0.1);
  check_bool "bounded above" true (b.Spectral.lambda_max < 4.0)

let test_sparsify_exact_oracle_ablation () =
  let n = 48 in
  let rng = Prng.create 7 in
  let g = Gen.connected_gnp rng ~n ~p:0.3 in
  let stream = Stream_gen.insert_only (Prng.split rng) g in
  let prm = fast_params ~n in
  let prm =
    { prm with Sparsify.estimate = { prm.Sparsify.estimate with Estimate.mode = Estimate.Exact_resistance } }
  in
  let r = Sparsify.run (Prng.split rng) ~n ~params:prm stream in
  let b = pencil g r.Sparsify.sparsifier in
  check_bool "exact oracle also works" true
    (b.Spectral.lambda_min > 0.2 && b.Spectral.lambda_max < 3.0)

let test_sparsify_preserves_bridge () =
  (* The bridge of a barbell has q_hat ~ 1: it must survive with weight ~1
     (its loss would send lambda_min to 0). *)
  let n = 24 in
  let g = Gen.barbell 12 in
  let stream = Stream_gen.insert_only (Prng.create 8) g in
  (* The bridge's q_hat level t* is ~log(1/lambda) above its resistance
     level (the alpha^2 slack of Lemma 19), so give this test the rounds
     that Lemma 22's Z = O(alpha^2 log n / eps^3) would: Z * 2^-level >> 1. *)
  let prm = { (fast_params ~n) with Sparsify.z_rounds = 16 } in
  let r = Sparsify.run (Prng.create 9) ~n ~params:prm stream in
  let b = pencil g r.Sparsify.sparsifier in
  check_bool "bridge preserved (lambda_min > 0)" true (b.Spectral.lambda_min > 0.2);
  check_bool "bridge edge present" true
    (Weighted_graph.mem_edge r.Sparsify.sparsifier 11 12)

let test_sample_spanner_semantics () =
  (* With q == j0 constant, Algorithm 5 must emit only weight 2^j0 edges,
     all of them real edges of the graph, and only edges that survived the
     level-j0 subsample (so substantially fewer than |E| for large j0). *)
  let n = 40 in
  let rng = Prng.create 60 in
  let g = Gen.connected_gnp rng ~n ~p:0.25 in
  let stream = Stream_gen.insert_only (Prng.split rng) g in
  let j0 = 3 in
  let r =
    Sample_spanner.run (Prng.split rng) ~n
      ~spanner_params:(Two_pass_spanner.default_params ~k:2)
      ~h_levels:8
      ~q:(fun _ _ -> j0)
      stream
  in
  check_bool "some edges emitted" true (List.length r.Sample_spanner.edges > 0);
  List.iter
    (fun (u, v, w) ->
      check_bool "real edge" true (Graph.mem_edge g u v);
      Alcotest.(check (float 1e-9)) "weight is 2^j0" (float_of_int (1 lsl j0)) w)
    r.Sample_spanner.edges;
  check_bool "subsampled (well below |E|)" true
    (List.length r.Sample_spanner.edges < Graph.num_edges g / 2);
  check_bool "space accounted" true (r.Sample_spanner.space_words > 0)

let test_sample_spanner_no_duplicates () =
  let n = 30 in
  let rng = Prng.create 61 in
  let g = Gen.connected_gnp rng ~n ~p:0.3 in
  let stream = Stream_gen.insert_only (Prng.split rng) g in
  let r =
    Sample_spanner.run (Prng.split rng) ~n
      ~spanner_params:(Two_pass_spanner.default_params ~k:2)
      ~h_levels:6
      ~q:(fun _ _ -> 2)
      stream
  in
  let keys = List.map (fun (u, v, _) -> (u, v)) r.Sample_spanner.edges in
  let sorted = List.sort_uniq compare keys in
  Alcotest.(check int) "no duplicate edges" (List.length keys) (List.length sorted)

(* -------------------- Uniform-sampling baseline -------------------- *)

let test_uniform_loses_bridges () =
  (* At rate p, the barbell bridge dies with probability 1 - p; resistance-
     aware sampling (SS08) keeps it always. *)
  let g = Weighted_graph.of_graph (Gen.barbell 12) in
  let p = 0.3 in
  let lost = ref 0 and trials = 40 in
  for t = 0 to trials - 1 do
    let h = Uniform_sparsifier.run (Prng.create (100 + t)) ~p g in
    if not (Weighted_graph.mem_edge h 11 12) then incr lost
  done;
  let frac = float_of_int !lost /. float_of_int trials in
  check_bool
    (Printf.sprintf "bridge lost ~(1-p) of the time (%.2f)" frac)
    true
    (abs_float (frac -. (1.0 -. p)) < 0.2);
  (* SS08 never loses it: p_e = min(1, C w R log n / eps^2) = 1 for R = 1,
     since C log n / eps^2 = 0.5 ln 24 / 0.25 ~ 6.4. *)
  for t = 0 to 9 do
    let h = Ss_sparsifier.run (Prng.create (200 + t)) ~eps:0.5 g in
    check_bool "ss08 keeps the bridge" true (Weighted_graph.mem_edge h 11 12)
  done

let test_uniform_unbiased_on_expanders () =
  (* On a dense G(n,p) every cut is crossed by many edges, so uniform
     sampling is actually fine — the contrast that motivates importance
     sampling only on sparse cuts. *)
  let g = Weighted_graph.of_graph (Gen.connected_gnp (Prng.create 40) ~n:48 ~p:0.5) in
  let h = Uniform_sparsifier.run (Prng.create 41) ~p:0.5 g in
  let b = Spectral.pencil_bounds ~base:g ~candidate:h in
  check_bool
    (Printf.sprintf "dense graph ok [%.2f, %.2f]" b.Spectral.lambda_min b.Spectral.lambda_max)
    true
    (b.Spectral.lambda_min > 0.35 && b.Spectral.lambda_max < 1.65)

let test_uniform_matching_p () =
  let g = Weighted_graph.of_graph (Gen.complete 20) in
  Alcotest.(check (float 1e-9)) "rate" (50.0 /. 190.0)
    (Uniform_sparsifier.matching_p ~target_edges:50 g)

(* -------------------- SS08 baseline -------------------- *)

let test_ss08_quality () =
  let g = Weighted_graph.of_graph (Gen.connected_gnp (Prng.create 10) ~n:64 ~p:0.4) in
  let h = Ss_sparsifier.run (Prng.create 11) ~eps:0.5 g in
  let b = Spectral.pencil_bounds ~base:g ~candidate:h in
  check_bool "ss08 lambda_min" true (b.Spectral.lambda_min > 0.4);
  check_bool "ss08 lambda_max" true (b.Spectral.lambda_max < 1.7);
  check_bool "ss08 compresses" true
    (Weighted_graph.num_edges h < Weighted_graph.num_edges g)

let test_ss08_expected_size_formula () =
  let g = Weighted_graph.of_graph (Gen.complete 32) in
  let e = Ss_sparsifier.expected_size ~eps:0.5 g in
  (* sum_e p_e <= m, and for a clique with eps=0.5 it is far below m. *)
  check_bool "formula sane" true (e > 0.0 && e <= float_of_int (Weighted_graph.num_edges g))

(* -------------------- single-pass (KLMMS chain) -------------------- *)

module S1 = Ds_sparsify.Sparsify1p
module LB = Ds_sparsify.Level_bank

let weighted_of_multigraph g =
  let wg = Weighted_graph.create (Graph.n g) in
  Graph.iter_edges g (fun u v ->
      Weighted_graph.add_edge wg u v (float_of_int (Graph.multiplicity g u v)));
  wg

(* A multigraph stream with deletions and Zipf-profiled residual
   multiplicities: edge of rank r ends at multiplicity ~ 4 / (1 + r mod 7),
   and every edge is over-inserted once and deleted once on the way. *)
let zipf_multigraph_stream rng g =
  let first = ref [] and ins = ref [] and del = ref [] in
  List.iteri
    (fun i (u, v) ->
      let m = max 1 (4 / (1 + (i mod 7))) in
      first := Update.insert u v :: !first;
      for _ = 1 to m do
        ins := Update.insert u v :: !ins
      done;
      del := Update.delete u v :: !del)
    (Graph.edges g);
  let shuffle a =
    let a = Array.copy a in
    for i = Array.length a - 1 downto 1 do
      let j = Prng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  (* One guaranteed insert per edge up front keeps every prefix valid; the
     remaining inserts and the deletions then interleave freely (an edge may
     drop to multiplicity 0 mid-stream and come back). *)
  Array.append
    (shuffle (Array.of_list !first))
    (Stream_gen.interleave rng (shuffle (Array.of_list !ins)) (shuffle (Array.of_list !del)))

let test_s1_eps_boundaries () =
  let rejects_two_pass eps =
    try
      ignore (Sparsify.default_params ~k:2 ~eps ~n:32);
      false
    with Sparsify.Invalid_eps e -> e = eps || (Float.is_nan e && Float.is_nan eps)
  in
  let rejects_one_pass eps =
    try
      ignore (S1.default_params ~n:32 ~eps);
      false
    with S1.Invalid_eps e -> e = eps || (Float.is_nan e && Float.is_nan eps)
  in
  List.iter
    (fun eps ->
      check_bool (Printf.sprintf "two-pass rejects %f" eps) true (rejects_two_pass eps);
      check_bool (Printf.sprintf "one-pass rejects %f" eps) true (rejects_one_pass eps))
    [ 0.0; 1.0; -0.25; 1.5; Float.nan ];
  (* The open interval's interior is accepted right up to the ends. *)
  List.iter
    (fun eps ->
      ignore (Sparsify.default_params ~k:2 ~eps ~n:32);
      ignore (S1.default_params ~n:32 ~eps))
    [ 0.001; 0.5; 0.999 ]

let test_s1_empty_stream () =
  let n = 16 in
  let r = S1.run (Prng.create 900) ~n ~params:(S1.default_params ~n ~eps:0.5) ~eps:0.5 [||] in
  check_int "empty stream -> empty sparsifier" 0
    (Weighted_graph.num_edges r.S1.sparsifier);
  check_bool "chain still ran" true (r.S1.chain_steps > 0)

let prop_s1_pencil =
  QCheck.Test.make
    ~name:"single-pass pencil bounds within (1 +- eps) on Zipf multigraphs with deletions"
    ~count:8 QCheck.small_nat
    (fun seed ->
      let n = 24 and eps = 0.5 in
      let rng = Prng.create (7000 + seed) in
      let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.25 in
      let stream = zipf_multigraph_stream (Prng.split rng) g in
      let base = weighted_of_multigraph (Update.final_graph ~n stream) in
      let r = S1.run (Prng.split rng) ~n ~params:(S1.default_params ~n ~eps) ~eps stream in
      let b = Spectral.pencil_bounds ~base ~candidate:r.S1.sparsifier in
      b.Spectral.lambda_min >= 1.0 -. eps
      && b.Spectral.lambda_max <= 1.0 +. eps
      && b.Spectral.kernel_leak < 1e-6)

let s1_test_bank seed =
  LB.create (Prng.create seed) ~dim:(Edge_index.dim 16)
    ~params:{ LB.banks = 2; levels = 6; rows = 3; cols = 32; hash_degree = 4 }

let s1_serialize t = Ds_sketch.Linear_sketch.serialize (module LB.Linear) t

let prop_s1_serialize_merge_commutes =
  QCheck.Test.make ~name:"level bank: serialize o merge = merge o serialize" ~count:20
    QCheck.small_nat
    (fun seed ->
      let rng = Prng.create (8000 + seed) in
      let dim = Edge_index.dim 16 in
      let stream () =
        Array.init 60 (fun _ -> (Prng.int rng dim, if Prng.bool rng then 1 else -1))
      in
      let a = s1_test_bank 33 and b = s1_test_bank 33 in
      Array.iter (fun (index, delta) -> LB.update a ~index ~delta) (stream ());
      Array.iter (fun (index, delta) -> LB.update b ~index ~delta) (stream ());
      (* Path 1: merge the live states, then serialize. *)
      let merged = LB.clone_zero a in
      LB.add merged a;
      LB.add merged b;
      let direct = s1_serialize merged in
      (* Path 2: serialize both, rehydrate into fresh states, merge those. *)
      let a' = LB.clone_zero a and b' = LB.clone_zero b in
      Ds_sketch.Linear_sketch.deserialize_into (module LB.Linear) a' (s1_serialize a);
      Ds_sketch.Linear_sketch.deserialize_into (module LB.Linear) b' (s1_serialize b);
      LB.add a' b';
      String.equal direct (s1_serialize a'))

let prop_s1_size_vs_two_pass =
  (* The measured-constant differential of E20: on the same stream the
     single-pass output may not exceed a small multiple of the two-pass
     output (both are (1 +- eps) sparsifiers; at this scale the chain's
     final step saturates, so the honest constant is its distance from the
     two-pass subsample). *)
  QCheck.Test.make ~name:"single-pass size within measured constant of two-pass" ~count:5
    QCheck.small_nat
    (fun seed ->
      let n = 32 and eps = 0.5 in
      let rng = Prng.create (9000 + seed) in
      let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.3 in
      let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:100 g in
      let one = S1.run (Prng.split rng) ~n ~params:(S1.default_params ~n ~eps) ~eps stream in
      let two = Sparsify.run (Prng.split rng) ~n ~params:(fast_params ~n) stream in
      let s1 = Weighted_graph.num_edges one.S1.sparsifier in
      let s2 = max 1 (Weighted_graph.num_edges two.Sparsify.sparsifier) in
      s1 <= 4 * s2 && float_of_int s1 <= S1.space_bound ~n ~eps)

let test_s1_state_roundtrip_decodes_identically () =
  (* The bank is the whole state: shipping it through LSK1 and decoding
     with the same seed must reproduce the sparsifier edge for edge. *)
  let n = 24 and eps = 0.5 in
  let rng = Prng.create 910 in
  let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.25 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:80 g in
  let prm = S1.default_params ~n ~eps in
  let t = S1.create (Prng.create 911) ~n ~params:prm in
  Array.iter (fun u -> S1.update t ~u:u.Update.u ~v:u.Update.v ~delta:(Update.delta u)) stream;
  let copy = LB.clone_zero (S1.bank t) in
  Ds_sketch.Linear_sketch.deserialize_into
    (module LB.Linear)
    copy
    (Ds_sketch.Linear_sketch.serialize (module LB.Linear) (S1.bank t));
  let r1 = S1.decode (Prng.create 912) t ~eps in
  let r2 = S1.decode (Prng.create 912) (S1.of_bank ~n ~params:prm copy) ~eps in
  check_bool "identical edge sets" true
    (Weighted_graph.edges r1.S1.sparsifier = Weighted_graph.edges r2.S1.sparsifier)

(* The decode's output, pinned. Weights are exact integers (a multiplicity
   times a power of two), so only the choice of edges and their
   multiplicities can move a digest: FNV-1a-64 over the sorted edge list,
   rendered as [dynospan sparsify1p] prints its [sparsifier-hash]. *)
let sparsifier_digest h =
  let b = Buffer.create 4096 in
  List.iter
    (fun (u, v, w) -> Printf.bprintf b "%d-%d:%h;" u v w)
    (List.sort compare (Weighted_graph.edges h));
  Printf.sprintf "%016Lx" (Wire.fnv1a64 (Buffer.contents b))

let s1_pinned_decode ~n ~p ~decoys ~seed ~eps =
  let root = Prng.create 20140721 in
  let g = Gen.connected_gnp (Prng.split_named root "graph") ~n ~p in
  let stream = Stream_gen.with_churn (Prng.create seed) ~decoys g in
  let t = S1.create (Prng.split_named root "sketch") ~n ~params:(S1.default_params ~n ~eps) in
  Array.iter (fun u -> S1.update t ~u:u.Update.u ~v:u.Update.v ~delta:(Update.delta u)) stream;
  S1.decode (Prng.split_named root "decode") t ~eps

let test_s1_decode_pinned () =
  (* The perfbench sparsify1p instance. *)
  let r = s1_pinned_decode ~n:96 ~p:0.2 ~decoys:2_000 ~seed:1 ~eps:0.5 in
  check_int "n=96 edges" 977 (Weighted_graph.num_edges r.S1.sparsifier);
  Alcotest.(check string) "n=96 digest" "31939d65af1e4c9b" (sparsifier_digest r.S1.sparsifier);
  let r = s1_pinned_decode ~n:48 ~p:0.3 ~decoys:500 ~seed:3 ~eps:0.3 in
  check_int "n=48 edges" 367 (Weighted_graph.num_edges r.S1.sparsifier);
  Alcotest.(check string) "n=48 digest" "d4ad0ef068f09fc3" (sparsifier_digest r.S1.sparsifier);
  Alcotest.(check (array int))
    "n=48 chain sizes"
    [|
      54; 117; 205; 319; 346; 364; 366; 366; 367; 367; 367; 366; 366; 366; 367; 367; 367; 367;
      367; 366; 366; 366; 367;
    |]
    r.S1.chain_sizes

let test_s1_bank_rejects_out_of_range () =
  let bank = s1_test_bank 34 in
  let dim = LB.dim bank in
  let raises what index f =
    Alcotest.check_raises
      (Printf.sprintf "%s %d" what index)
      (Invalid_argument (Printf.sprintf "Level_bank.%s: index out of range" what))
      (fun () -> ignore (f ()))
  in
  List.iter
    (fun index ->
      raises "update" index (fun () -> LB.update bank ~index ~delta:1);
      raises "sample_level" index (fun () -> LB.sample_level bank ~bank:0 ~index);
      raises "query" index (fun () -> LB.query bank ~bank:1 ~level:0 ~index))
    [ -1; dim ];
  (* The ends of the range still work. *)
  List.iter
    (fun index ->
      LB.update bank ~index ~delta:3;
      let level = LB.sample_level bank ~bank:0 ~index in
      check_int (Printf.sprintf "query %d" index) 3 (LB.query bank ~bank:0 ~level ~index))
    [ 0; dim - 1 ]

let () =
  Alcotest.run "sparsifier"
    [
      ( "estimate",
        [
          Alcotest.test_case "orders resistances" `Slow test_estimate_orders_resistances;
          Alcotest.test_case "correlates with resistance" `Slow
            test_estimate_correlates_with_resistance;
          Alcotest.test_case "exact mode" `Quick test_estimate_exact_mode;
        ] );
      ( "sample_spanner",
        [
          Alcotest.test_case "semantics" `Quick test_sample_spanner_semantics;
          Alcotest.test_case "no duplicates" `Quick test_sample_spanner_no_duplicates;
        ] );
      ( "sparsify",
        [
          Alcotest.test_case "quality" `Slow test_sparsify_quality;
          Alcotest.test_case "under churn" `Slow test_sparsify_under_churn;
          Alcotest.test_case "exact oracle ablation" `Slow test_sparsify_exact_oracle_ablation;
          Alcotest.test_case "preserves bridge" `Slow test_sparsify_preserves_bridge;
        ] );
      ( "uniform_baseline",
        [
          Alcotest.test_case "loses bridges" `Quick test_uniform_loses_bridges;
          Alcotest.test_case "fine on dense" `Quick test_uniform_unbiased_on_expanders;
          Alcotest.test_case "matching p" `Quick test_uniform_matching_p;
        ] );
      ( "ss08",
        [
          Alcotest.test_case "quality" `Quick test_ss08_quality;
          Alcotest.test_case "expected size" `Quick test_ss08_expected_size_formula;
        ] );
      ( "sparsify1p",
        [
          Alcotest.test_case "eps boundaries" `Quick test_s1_eps_boundaries;
          Alcotest.test_case "empty stream" `Quick test_s1_empty_stream;
          Alcotest.test_case "state roundtrip decodes identically" `Slow
            test_s1_state_roundtrip_decodes_identically;
          Alcotest.test_case "decode output pinned" `Quick test_s1_decode_pinned;
          Alcotest.test_case "bank rejects out-of-range index" `Quick
            test_s1_bank_rejects_out_of_range;
          QCheck_alcotest.to_alcotest prop_s1_pencil;
          QCheck_alcotest.to_alcotest prop_s1_serialize_merge_commutes;
          QCheck_alcotest.to_alcotest prop_s1_size_vs_two_pass;
        ] );
    ]
