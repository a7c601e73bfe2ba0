open Ds_util
open Ds_graph
open Ds_stream
open Ds_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------- Clustering -------------------- *)

let test_centers_shape () =
  let c = Clustering.sample_centers (Prng.create 1) ~n:100 ~k:3 in
  check_int "levels" 3 (Array.length c);
  check_bool "level 0 all" true (Array.for_all (fun b -> b) c.(0));
  let count r = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 c.(r) in
  check_bool "densities decrease" true (count 1 >= count 2)

let test_clustering_k1 () =
  (* k = 1: every vertex is a level-0 terminal. *)
  let centers = Clustering.sample_centers (Prng.create 2) ~n:10 ~k:1 in
  let t =
    Clustering.build ~n:10 ~k:1 ~centers ~attach:(fun ~level:_ ~root:_ ~members:_ ->
        Alcotest.fail "attach must not be called for k = 1")
  in
  check_int "terminals" 10 (Array.length t.Clustering.terminals);
  check_bool "partition" true (Clustering.check_partition t)

let test_clustering_merges () =
  (* Hand-driven attach: all level-0 clusters attach to center 0. *)
  let n = 6 in
  let centers = [| Array.make n true; Array.init n (fun v -> v = 0) |] in
  let t =
    Clustering.build ~n ~k:2 ~centers ~attach:(fun ~level ~root ~members:_ ->
        check_int "only level 0 attaches" 0 level;
        Some (0, (root, 0)))
  in
  check_int "single terminal" 1 (Array.length t.Clustering.terminals);
  check_int "witnesses" n (List.length t.Clustering.witnesses);
  check_bool "partition" true (Clustering.check_partition t);
  let top = t.Clustering.terminals.(0) in
  check_int "terminal level" 1 top.Clustering.level;
  check_int "all members" n (List.length top.Clustering.members)

let test_clustering_rejects_non_center_parent () =
  let n = 4 in
  let centers = [| Array.make n true; Array.make n false |] in
  Alcotest.check_raises "bad parent"
    (Invalid_argument "Clustering.build: parent not a level+1 center") (fun () ->
      ignore
        (Clustering.build ~n ~k:2 ~centers ~attach:(fun ~level:_ ~root ~members:_ ->
             Some (1, (root, 1)))))

(* -------------------- Basic (offline) spanner -------------------- *)

let stretch_ok g spanner bound =
  let s = Stretch.multiplicative ~base:g ~spanner in
  s.Stretch.violations = 0 && s.Stretch.max <= float_of_int bound +. 1e-9

let test_basic_spanner_stretch () =
  for seed = 0 to 4 do
    let rng = Prng.create (10 + seed) in
    let g = Gen.connected_gnp rng ~n:80 ~p:0.08 in
    List.iter
      (fun k ->
        let { Basic_spanner.spanner; clustering } = Basic_spanner.run (Prng.split rng) ~k g in
        check_bool "subgraph" true (Graph.is_subgraph ~sub:spanner ~super:g);
        check_bool "partition" true (Clustering.check_partition clustering);
        check_bool
          (Printf.sprintf "stretch <= 2^%d (seed %d)" k seed)
          true
          (stretch_ok g spanner (1 lsl k)))
      [ 1; 2; 3 ]
  done

let test_basic_spanner_k1_keeps_all () =
  (* k = 1 keeps every edge: each vertex is its own terminal cluster, and
     phase 2 adds an edge to each outside neighbour = all edges. *)
  let g = Gen.connected_gnp (Prng.create 20) ~n:40 ~p:0.15 in
  let { Basic_spanner.spanner; _ } = Basic_spanner.run (Prng.create 21) ~k:1 g in
  check_bool "identical" true (Graph.equal_edge_sets spanner g)

let test_basic_spanner_dense_shrinks () =
  let g = Gen.complete 64 in
  let { Basic_spanner.spanner; _ } = Basic_spanner.run (Prng.create 22) ~k:3 g in
  check_bool "sparsifies the clique" true (Graph.num_edges spanner < Graph.num_edges g / 4);
  check_bool "stretch" true (stretch_ok g spanner 8)

let test_basic_spanner_disconnected () =
  let g = Gen.disjoint_cliques (Prng.create 23) ~count:3 ~size:10 in
  let { Basic_spanner.spanner; _ } = Basic_spanner.run (Prng.create 24) ~k:2 g in
  check_bool "stretch per component" true (stretch_ok g spanner 4);
  check_int "components preserved" 3 (Components.count spanner)

(* -------------------- Two-pass streaming spanner -------------------- *)

let run_streaming ?(decoys = 300) ~k ~seed g =
  let n = Graph.n g in
  let rng = Prng.create seed in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys g in
  Two_pass_spanner.run (Prng.split rng) ~n
    ~params:(Two_pass_spanner.default_params ~k)
    stream

let test_two_pass_stretch_bound () =
  List.iter
    (fun (k, seed) ->
      let g = Gen.connected_gnp (Prng.create seed) ~n:72 ~p:0.09 in
      let r = run_streaming ~k ~seed:(seed * 7) g in
      check_bool "subgraph" true (Graph.is_subgraph ~sub:r.Two_pass_spanner.spanner ~super:g);
      check_bool
        (Printf.sprintf "streaming stretch <= 2^%d" k)
        true
        (stretch_ok g r.Two_pass_spanner.spanner (1 lsl k)))
    [ (1, 31); (2, 32); (3, 33); (2, 34); (3, 35) ]

let test_two_pass_families () =
  let cases =
    [
      ("path", Gen.path 60, 3);
      ("cycle", Gen.cycle 60, 3);
      ("grid", Gen.grid 8 8, 3);
      ("clique", Gen.complete 40, 2);
      ("star", Gen.star 50, 2);
    ]
  in
  List.iter
    (fun (name, g, k) ->
      let r = run_streaming ~k ~seed:(Hashtbl.hash name) g in
      check_bool (name ^ " subgraph") true
        (Graph.is_subgraph ~sub:r.Two_pass_spanner.spanner ~super:g);
      check_bool (name ^ " stretch") true (stretch_ok g r.Two_pass_spanner.spanner (1 lsl k)))
    cases

let test_two_pass_heavy_deletion () =
  (* Insert K_n then delete down to a sparse graph; the sketches must track. *)
  let n = 48 in
  let target = Gen.connected_gnp (Prng.create 40) ~n ~p:0.08 in
  let stream =
    Stream_gen.delete_down_to (Prng.create 41) ~from:(Gen.complete n) target
  in
  let r =
    Two_pass_spanner.run (Prng.create 42) ~n
      ~params:(Two_pass_spanner.default_params ~k:2)
      stream
  in
  check_bool "subgraph of remnant" true
    (Graph.is_subgraph ~sub:r.Two_pass_spanner.spanner ~super:target);
  check_bool "stretch on remnant" true (stretch_ok target r.Two_pass_spanner.spanner 4)

let test_two_pass_multiplicities () =
  let g = Gen.connected_gnp (Prng.create 43) ~n:40 ~p:0.1 in
  let stream = Stream_gen.multiplicity_churn (Prng.create 44) ~copies:3 g in
  let r =
    Two_pass_spanner.run (Prng.create 45) ~n:40
      ~params:(Two_pass_spanner.default_params ~k:2)
      stream
  in
  check_bool "multigraph handled" true (stretch_ok g r.Two_pass_spanner.spanner 4)

let test_two_pass_empty_stream () =
  let r =
    Two_pass_spanner.run (Prng.create 46) ~n:10
      ~params:(Two_pass_spanner.default_params ~k:2)
      [||]
  in
  check_int "empty spanner" 0 (Graph.num_edges r.Two_pass_spanner.spanner)

let test_two_pass_matches_offline_semantics () =
  (* The streaming spanner emulates the offline algorithm: same size order,
     stretch bound, and it must recover at least a spanning structure per
     component. *)
  let g = Gen.connected_gnp (Prng.create 47) ~n:64 ~p:0.1 in
  let r = run_streaming ~k:3 ~seed:48 g in
  check_bool "connected spanner" true (Components.is_connected r.Two_pass_spanner.spanner);
  let bound = 4.0 *. Basic_spanner.size_bound ~n:64 ~k:3 in
  check_bool "size within Lemma 12 order" true
    (float_of_int (Graph.num_edges r.Two_pass_spanner.spanner) <= bound)

let test_two_pass_accessed_superset () =
  (* Augmented output (Claim 20): accessed edges contain the spanner and are
     all real edges of G. *)
  let g = Gen.connected_gnp (Prng.create 49) ~n:50 ~p:0.1 in
  let r = run_streaming ~k:2 ~seed:50 g in
  List.iter
    (fun (a, b) -> check_bool "accessed edge real" true (Graph.mem_edge g a b))
    r.Two_pass_spanner.accessed_edges;
  let accessed = Hashtbl.create 64 in
  List.iter
    (fun (a, b) -> Hashtbl.replace accessed (min a b, max a b) ())
    r.Two_pass_spanner.accessed_edges;
  Graph.iter_edges r.Two_pass_spanner.spanner (fun a b ->
      check_bool "spanner inside accessed" true (Hashtbl.mem accessed (a, b)))

let test_two_pass_diagnostics_clean () =
  let g = Gen.connected_gnp (Prng.create 51) ~n:64 ~p:0.1 in
  let r = run_streaming ~k:3 ~seed:52 g in
  let d = r.Two_pass_spanner.diagnostics in
  check_int "no table failures" 0 d.Two_pass_spanner.table_decode_failures;
  check_bool "space accounted" true (r.Two_pass_spanner.space_words > 0)

(* A terminal cluster keeps the L0-sampler payload when its |T| - 1 exact
   member counts would not fit in the sampler's state. With one rep of
   sparsity 1 that state is 12 words per level, 108 for a 199-member
   cluster, so the star's leaves (one terminal cluster at these seeds)
   are sampled. *)
let test_two_pass_sampler_payload () =
  let n = 200 and k = 2 in
  let g = Gen.star n in
  let params =
    {
      (Two_pass_spanner.default_params ~k) with
      payload = { Ds_sketch.Packed_l0.reps = 1; sparsity = 1; hash_degree = 6 };
    }
  in
  List.iter
    (fun seed ->
      let stream = Stream_gen.with_churn (Prng.create (seed + 1000)) ~decoys:2000 g in
      let r = Two_pass_spanner.run (Prng.create seed) ~n ~params stream in
      let largest =
        Array.fold_left
          (fun acc t -> max acc (List.length t.Clustering.members))
          0 r.Two_pass_spanner.clustering.Clustering.terminals
      in
      let name = Printf.sprintf "seed %d" seed in
      check_int (name ^ " terminal cluster size") 199 largest;
      check_bool (name ^ " subgraph") true
        (Graph.is_subgraph ~sub:r.Two_pass_spanner.spanner ~super:g);
      check_bool (name ^ " stretch") true (stretch_ok g r.Two_pass_spanner.spanner (1 lsl k)))
    [ 15; 27; 28 ]

(* perfbench's spanner-churn instance: every terminal cluster is small
   enough for exact member counts, whose decode cannot decline. *)
let test_two_pass_churn_no_payload_declines () =
  let n = 256 in
  let root = Prng.create 20140721 in
  let g = Gen.connected_gnp (Prng.split_named root "graph") ~n ~p:0.08 in
  let stream = Stream_gen.with_churn (Prng.create 1) ~decoys:50_000 g in
  let r =
    Two_pass_spanner.run (Prng.split_named root "spanner") ~n
      ~params:(Two_pass_spanner.default_params ~k:3)
      stream
  in
  check_int "payload declines" 0
    r.Two_pass_spanner.diagnostics.Two_pass_spanner.payload_decode_failures;
  check_bool "subgraph" true (Graph.is_subgraph ~sub:r.Two_pass_spanner.spanner ~super:g);
  check_bool "stretch" true (stretch_ok g r.Two_pass_spanner.spanner 8)

let prop_two_pass_stretch =
  QCheck.Test.make ~name:"two-pass spanner respects 2^k on random graphs+streams" ~count:15
    QCheck.(pair small_nat (int_range 1 3))
    (fun (seed, k) ->
      let rng = Prng.create (seed + 900) in
      let g = Gen.connected_gnp rng ~n:40 ~p:0.12 in
      let r = run_streaming ~k ~seed:(seed + 901) ~decoys:150 g in
      Graph.is_subgraph ~sub:r.Two_pass_spanner.spanner ~super:g
      && stretch_ok g r.Two_pass_spanner.spanner (1 lsl k))

(* Every counter of both passes is a plain sum over the stream, so a
   shuffled stream, even one that deletes an edge before inserting it,
   gives the same run. *)
let prop_two_pass_order_independent =
  QCheck.Test.make ~name:"two-pass spanner does not depend on stream order" ~count:30
    QCheck.(quad small_nat (int_range 24 84) (int_range 2 3) (int_range 0 600))
    (fun (seed, n, k, decoys) ->
      let rng = Prng.create (seed + 1300) in
      let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.1 in
      let stream = Stream_gen.with_churn (Prng.split rng) ~decoys g in
      let shuffled = Array.copy stream in
      Prng.shuffle (Prng.split rng) shuffled;
      let run s =
        Two_pass_spanner.run (Prng.create seed) ~n ~params:(Two_pass_spanner.default_params ~k) s
      in
      let a = run stream and b = run shuffled in
      let open Two_pass_spanner in
      Graph.edges a.spanner = Graph.edges b.spanner
      && a.diagnostics = b.diagnostics
      && a.space_words = b.space_words
      && List.sort compare a.accessed_edges = List.sort compare b.accessed_edges)

(* -------------------- Multi-pass (2k-1) streaming spanner ------------ *)

let run_multipass ?(decoys = 200) ~k ~seed g =
  let n = Graph.n g in
  let rng = Prng.create seed in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys g in
  Multipass_spanner.run (Prng.split rng) ~n ~params:(Multipass_spanner.default_params ~k) stream

let test_multipass_stretch () =
  List.iter
    (fun (k, seed) ->
      let g = Gen.connected_gnp (Prng.create seed) ~n:72 ~p:0.1 in
      let r = run_multipass ~k ~seed:(seed * 11) g in
      check_bool "subgraph" true (Graph.is_subgraph ~sub:r.Multipass_spanner.spanner ~super:g);
      check_int "pass count" k r.Multipass_spanner.passes;
      check_bool
        (Printf.sprintf "multipass stretch <= 2k-1 (k=%d)" k)
        true
        (stretch_ok g r.Multipass_spanner.spanner (Multipass_spanner.stretch_bound ~k)))
    [ (1, 81); (2, 82); (3, 83); (4, 84) ]

let test_multipass_k1_keeps_all () =
  let g = Gen.connected_gnp (Prng.create 85) ~n:40 ~p:0.15 in
  let r = run_multipass ~k:1 ~seed:86 g in
  (* One pass, one cluster per vertex: every edge is an inter-cluster edge
     and must be kept (stretch 1). *)
  check_bool "identical" true (Graph.equal_edge_sets g r.Multipass_spanner.spanner)

let test_multipass_deletion_heavy () =
  let n = 40 in
  let target = Gen.connected_gnp (Prng.create 87) ~n ~p:0.12 in
  let stream = Stream_gen.delete_down_to (Prng.create 88) ~from:(Gen.complete n) target in
  let r =
    Multipass_spanner.run (Prng.create 89) ~n ~params:(Multipass_spanner.default_params ~k:2)
      stream
  in
  check_bool "subgraph of remnant" true
    (Graph.is_subgraph ~sub:r.Multipass_spanner.spanner ~super:target);
  check_bool "stretch" true (stretch_ok target r.Multipass_spanner.spanner 3)

let test_multipass_vs_two_pass_tradeoff () =
  (* The paper's Section 1 comparison: more passes buy a better stretch at
     comparable space. Verify the qualitative claim on one graph. *)
  let g = Gen.connected_gnp (Prng.create 90) ~n:96 ~p:0.1 in
  let k = 3 in
  let mp = run_multipass ~k ~seed:91 g in
  let rng = Prng.create 92 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:200 g in
  let tp =
    Two_pass_spanner.run (Prng.split rng) ~n:96 ~params:(Two_pass_spanner.default_params ~k)
      stream
  in
  let s_mp = Stretch.multiplicative ~base:g ~spanner:mp.Multipass_spanner.spanner in
  let s_tp = Stretch.multiplicative ~base:g ~spanner:tp.Two_pass_spanner.spanner in
  check_bool "multipass uses more passes" true (mp.Multipass_spanner.passes > 2);
  check_bool "both respect their bounds" true
    (s_mp.Stretch.max <= float_of_int ((2 * k) - 1) && s_tp.Stretch.max <= float_of_int (1 lsl k))

(* The exact output of two churned instances, pinned as FNV-1a-64 over the
   sorted "u,v;" edge list (the digest `dynospan` prints as spanner-hash):
   any change to the table or payload kernels' hashing or peeling order
   moves it. *)
let edge_digest g =
  let edges = ref [] in
  Graph.iter_edges g (fun u v -> edges := (min u v, max u v) :: !edges);
  let buf = Buffer.create 1024 in
  List.iter (fun (u, v) -> Printf.bprintf buf "%d,%d;" u v) (List.sort compare !edges);
  Printf.sprintf "%016Lx" (Wire.fnv1a64 (Buffer.contents buf))

let test_multipass_pinned () =
  List.iter
    (fun (s, n, p, decoys, k, edges, digest) ->
      let g = Gen.connected_gnp (Prng.create s) ~n ~p in
      let stream = Stream_gen.with_churn (Prng.create (s + 1)) ~decoys g in
      let r =
        Multipass_spanner.run (Prng.create (s + 2)) ~n
          ~params:(Multipass_spanner.default_params ~k) stream
      in
      let name = Printf.sprintf "seed %d" s in
      check_int (name ^ " edges") edges (Graph.num_edges r.Multipass_spanner.spanner);
      Alcotest.(check string) (name ^ " digest") digest (edge_digest r.Multipass_spanner.spanner))
    [
      (11, 96, 0.1, 2000, 2, 482, "32bc6381156a58ed");
      (12, 128, 0.08, 4000, 3, 537, "9f77d4003ff79297");
    ]

(* -------------------- Distance oracle -------------------- *)

let test_oracle_unweighted () =
  let n = 64 in
  let rng = Prng.create 60 in
  let g = Gen.connected_gnp rng ~n ~p:0.08 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:300 g in
  let o = Distance_oracle.of_stream (Prng.split rng) ~n ~k:3 stream in
  Alcotest.(check (float 1e-9)) "stretch constant" 8.0 (Distance_oracle.stretch o);
  for u = 0 to 9 do
    for v = 10 to 19 do
      let exact = float_of_int (Bfs.distance g u v) in
      let est = Distance_oracle.query o u v in
      check_bool "lower bound" true (est >= exact -. 1e-9);
      check_bool "stretch bound" true (est <= (8.0 *. exact) +. 1e-9)
    done
  done;
  check_bool "reports space" true (Distance_oracle.space_words o > 0);
  check_bool "reports size" true (Distance_oracle.spanner_edges o > 0)

(* -------------------- Stretch evaluation itself -------------------- *)

let test_stretch_exact () =
  let g = Gen.cycle 8 in
  (* Remove one edge: that edge's endpoints are now at distance 7. *)
  let h = Graph.subgraph g ~keep:(fun u v -> not (u = 0 && v = 1) && not (u = 1 && v = 0)) in
  let s = Stretch.multiplicative ~base:g ~spanner:h in
  Alcotest.(check (float 1e-9)) "max stretch" 7.0 s.Stretch.max;
  check_int "no violations" 0 s.Stretch.violations

let test_stretch_violation_detected () =
  let g = Gen.path 4 in
  let h = Graph.create 4 in
  (* Empty spanner: every edge is a violation. *)
  let s = Stretch.multiplicative ~base:g ~spanner:h in
  check_int "violations" 3 s.Stretch.violations;
  check_bool "max infinite" true (s.Stretch.max = infinity)

let test_additive_exact () =
  let g = Gen.cycle 6 in
  let h = Graph.subgraph g ~keep:(fun u v -> not (u = 0 && v = 5) && not (u = 5 && v = 0)) in
  let s = Stretch.additive ~base:g ~spanner:h () in
  (* Pair (0,5): base distance 1, spanner distance 5: surplus 4. *)
  Alcotest.(check (float 1e-9)) "max surplus" 4.0 s.Stretch.max

let () =
  Alcotest.run "spanner"
    [
      ( "clustering",
        [
          Alcotest.test_case "centers shape" `Quick test_centers_shape;
          Alcotest.test_case "k=1" `Quick test_clustering_k1;
          Alcotest.test_case "merges" `Quick test_clustering_merges;
          Alcotest.test_case "rejects bad parent" `Quick test_clustering_rejects_non_center_parent;
        ] );
      ( "basic_spanner",
        [
          Alcotest.test_case "stretch bound" `Slow test_basic_spanner_stretch;
          Alcotest.test_case "k=1 keeps all" `Quick test_basic_spanner_k1_keeps_all;
          Alcotest.test_case "dense shrinks" `Quick test_basic_spanner_dense_shrinks;
          Alcotest.test_case "disconnected" `Quick test_basic_spanner_disconnected;
        ] );
      ( "two_pass",
        [
          Alcotest.test_case "stretch bound" `Slow test_two_pass_stretch_bound;
          Alcotest.test_case "graph families" `Slow test_two_pass_families;
          Alcotest.test_case "heavy deletion" `Quick test_two_pass_heavy_deletion;
          Alcotest.test_case "multiplicities" `Quick test_two_pass_multiplicities;
          Alcotest.test_case "empty stream" `Quick test_two_pass_empty_stream;
          Alcotest.test_case "offline semantics" `Quick test_two_pass_matches_offline_semantics;
          Alcotest.test_case "accessed superset" `Quick test_two_pass_accessed_superset;
          Alcotest.test_case "diagnostics clean" `Quick test_two_pass_diagnostics_clean;
          Alcotest.test_case "sampler payload" `Quick test_two_pass_sampler_payload;
          Alcotest.test_case "churn: no payload declines" `Quick
            test_two_pass_churn_no_payload_declines;
        ] );
      ( "multipass",
        [
          Alcotest.test_case "stretch bound" `Slow test_multipass_stretch;
          Alcotest.test_case "k=1 keeps all" `Quick test_multipass_k1_keeps_all;
          Alcotest.test_case "heavy deletion" `Quick test_multipass_deletion_heavy;
          Alcotest.test_case "tradeoff vs two-pass" `Quick test_multipass_vs_two_pass_tradeoff;
          Alcotest.test_case "pinned output" `Quick test_multipass_pinned;
        ] );
      ( "distance_oracle",
        [ Alcotest.test_case "unweighted" `Quick test_oracle_unweighted ] );
      ( "stretch_eval",
        [
          Alcotest.test_case "exact" `Quick test_stretch_exact;
          Alcotest.test_case "violation detected" `Quick test_stretch_violation_detected;
          Alcotest.test_case "additive exact" `Quick test_additive_exact;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_two_pass_stretch; prop_two_pass_order_independent ] );
    ]
