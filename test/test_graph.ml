open Ds_util
open Ds_graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------- Edge_index -------------------- *)

let test_edge_index_roundtrip () =
  let n = 37 in
  Edge_index.iter_pairs ~n (fun u v ->
      let idx = Edge_index.encode ~n u v in
      check_bool "in range" true (idx >= 0 && idx < Edge_index.dim n);
      Alcotest.(check (pair int int)) "roundtrip" (u, v) (Edge_index.decode ~n idx))

let test_edge_index_symmetric () =
  let n = 10 in
  check_int "order independent" (Edge_index.encode ~n 3 7) (Edge_index.encode ~n 7 3)

let test_edge_index_bijective () =
  let n = 25 in
  let seen = Hashtbl.create 300 in
  Edge_index.iter_pairs ~n (fun u v ->
      let idx = Edge_index.encode ~n u v in
      check_bool "no collision" false (Hashtbl.mem seen idx);
      Hashtbl.add seen idx ());
  check_int "covers the space" (Edge_index.dim n) (Hashtbl.length seen)

let prop_edge_index =
  QCheck.Test.make ~name:"edge_index roundtrips on random pairs" ~count:300
    QCheck.(triple (int_range 2 300) small_nat small_nat)
    (fun (n, a, b) ->
      let u = a mod n and v = b mod n in
      QCheck.assume (u <> v);
      Edge_index.decode ~n (Edge_index.encode ~n u v) = (min u v, max u v))

(* -------------------- Graph -------------------- *)

let test_graph_basic () =
  let g = Graph.create 5 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  check_bool "mem" true (Graph.mem_edge g 1 0);
  check_bool "not mem" false (Graph.mem_edge g 0 2);
  check_int "degree" 2 (Graph.degree g 1);
  check_int "edges" 2 (Graph.num_edges g)

let test_graph_multiplicity () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 0 1;
  check_int "multiplicity 2" 2 (Graph.multiplicity g 0 1);
  check_int "distinct edges" 1 (Graph.num_edges g);
  Graph.remove_edge g 0 1;
  check_bool "still present" true (Graph.mem_edge g 0 1);
  Graph.remove_edge g 0 1;
  check_bool "gone" false (Graph.mem_edge g 0 1);
  Alcotest.check_raises "negative multiplicity rejected"
    (Invalid_argument "Graph.remove_edge: multiplicity already zero") (fun () ->
      Graph.remove_edge g 0 1)

let test_graph_self_loop_rejected () =
  let g = Graph.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph: self-loop") (fun () ->
      Graph.add_edge g 1 1)

let test_graph_subgraph_union () =
  let g = Gen.complete 6 in
  let h = Graph.subgraph g ~keep:(fun u v -> (u + v) mod 2 = 0) in
  check_bool "subgraph" true (Graph.is_subgraph ~sub:h ~super:g);
  let u = Graph.union h g in
  check_bool "union equals super" true (Graph.equal_edge_sets u g)

(* -------------------- BFS -------------------- *)

let test_bfs_path () =
  let g = Gen.path 10 in
  let d = Bfs.distances g ~source:0 in
  for i = 0 to 9 do
    check_int "path distance" i d.(i)
  done

let test_bfs_disconnected () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 2 3;
  check_int "unreachable" max_int (Bfs.distance g 0 3)

let test_bfs_capped () =
  let g = Gen.path 10 in
  let d = Bfs.distances_capped g ~source:0 ~cap:3 in
  check_int "within cap" 3 d.(3);
  check_int "beyond cap" max_int d.(7)

let test_bfs_grid () =
  let g = Gen.grid 5 7 in
  (* Manhattan distance on a grid. *)
  let d = Bfs.distances g ~source:0 in
  check_int "corner to corner" (4 + 6) d.((5 * 7) - 1)

(* -------------------- Union_find / Components -------------------- *)

let test_union_find () =
  let uf = Union_find.create 6 in
  check_bool "fresh distinct" false (Union_find.same uf 0 1);
  check_bool "union" true (Union_find.union uf 0 1);
  check_bool "redundant union" false (Union_find.union uf 1 0);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 2);
  check_bool "transitive" true (Union_find.same uf 0 3);
  check_int "classes" 3 (Union_find.num_classes uf)

let test_components () =
  let g = Graph.create 7 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 3 4;
  check_int "count" 4 (Components.count g);
  check_bool "same" true (Components.same_component g 0 2);
  check_bool "different" false (Components.same_component g 0 3);
  check_bool "not connected" false (Components.is_connected g);
  check_bool "connected path" true (Components.is_connected (Gen.path 5))

let test_spanning_forest () =
  let g = Gen.connected_gnp (Prng.create 3) ~n:40 ~p:0.1 in
  let f = Components.spanning_forest g in
  check_int "tree size" 39 (List.length f);
  let tree = Graph.of_edges 40 (List.map (fun (u, v) -> (u, v)) f) in
  check_bool "forest edges from g" true (Graph.is_subgraph ~sub:tree ~super:g);
  check_bool "spans" true (Components.is_connected tree)

(* -------------------- Generators -------------------- *)

let test_gen_gnm () =
  let g = Gen.gnm (Prng.create 1) ~n:30 ~m:100 in
  check_int "edge count" 100 (Graph.num_edges g)

let test_gen_complete () =
  let g = Gen.complete 9 in
  check_int "edges" 36 (Graph.num_edges g);
  check_int "degree" 8 (Graph.degree g 0)

let test_gen_barbell () =
  let g = Gen.barbell 5 in
  check_int "vertices" 10 (Graph.n g);
  check_int "edges" ((2 * 10) + 1) (Graph.num_edges g);
  check_bool "bridge" true (Graph.mem_edge g 4 5);
  check_bool "connected" true (Components.is_connected g)

let test_gen_lollipop () =
  let g = Gen.lollipop 4 6 in
  check_int "vertices" 10 (Graph.n g);
  check_bool "connected" true (Components.is_connected g);
  check_int "far end distance" 7 (Bfs.distance g 0 9)

let test_gen_disjoint_cliques () =
  let g = Gen.disjoint_cliques (Prng.create 2) ~count:4 ~size:5 in
  check_int "components" 4 (Components.count g);
  check_int "edges" (4 * 10) (Graph.num_edges g)

let test_gen_preferential () =
  let g = Gen.preferential_attachment (Prng.create 4) ~n:100 ~m:3 in
  check_bool "connected" true (Components.is_connected g);
  check_bool "enough edges" true (Graph.num_edges g >= 3 * (100 - 4));
  (* Heavy tail: some vertex much above the minimum degree. *)
  let dmax = ref 0 in
  for v = 0 to 99 do
    dmax := max !dmax (Graph.degree g v)
  done;
  check_bool "hub exists" true (!dmax >= 10)

let test_gen_connected_gnp () =
  for seed = 0 to 4 do
    let g = Gen.connected_gnp (Prng.create seed) ~n:50 ~p:0.02 in
    check_bool "always connected" true (Components.is_connected g)
  done

let test_gen_watts_strogatz () =
  for seed = 0 to 3 do
    let g = Gen.watts_strogatz (Prng.create seed) ~n:60 ~k:3 ~beta:0.2 in
    check_int "vertices" 60 (Graph.n g);
    check_bool "connected (ring kept)" true (Components.is_connected g);
    (* Edge count is conserved by rewiring. *)
    check_int "edges" (60 * 3) (Graph.num_edges g)
  done;
  Alcotest.check_raises "k too large" (Invalid_argument "Gen.watts_strogatz: need 1 <= k < n/2")
    (fun () -> ignore (Gen.watts_strogatz (Prng.create 1) ~n:10 ~k:5 ~beta:0.1))

(* -------------------- Weighted graphs / Dijkstra -------------------- *)

let test_weighted_basic () =
  let g = Weighted_graph.create 4 in
  Weighted_graph.add_edge g 0 1 2.5;
  Alcotest.(check (option (float 1e-9))) "weight" (Some 2.5) (Weighted_graph.weight g 1 0);
  Alcotest.check_raises "duplicate insert"
    (Invalid_argument "Weighted_graph.add_edge: edge already present") (fun () ->
      Weighted_graph.add_edge g 0 1 3.0);
  Weighted_graph.remove_edge g 0 1;
  check_bool "removed" false (Weighted_graph.mem_edge g 0 1)

let test_dijkstra_matches_bfs () =
  let g = Gen.connected_gnp (Prng.create 6) ~n:40 ~p:0.08 in
  let wg = Weighted_graph.of_graph g in
  let d_bfs = Bfs.distances g ~source:0 in
  let d_dij = Dijkstra.distances wg ~source:0 in
  for v = 0 to 39 do
    Alcotest.(check (float 1e-9)) "unit weights agree" (float_of_int d_bfs.(v)) d_dij.(v)
  done

let test_dijkstra_weighted () =
  (* Triangle where the direct edge is heavier than the two-hop route. *)
  let g = Weighted_graph.of_edges 3 [ (0, 2, 10.0); (0, 1, 1.0); (1, 2, 2.0) ] in
  Alcotest.(check (float 1e-9)) "takes detour" 3.0 (Dijkstra.distance g 0 2)

let prop_dijkstra_triangle =
  QCheck.Test.make ~name:"dijkstra satisfies the triangle inequality" ~count:50
    QCheck.small_nat
    (fun seed ->
      let g = Gen.connected_gnp (Prng.create seed) ~n:20 ~p:0.15 in
      let wg = Weighted_graph.of_graph g in
      let d = Array.init 20 (fun s -> Dijkstra.distances wg ~source:s) in
      let ok = ref true in
      for a = 0 to 19 do
        for b = 0 to 19 do
          for c = 0 to 19 do
            if d.(a).(b) > d.(a).(c) +. d.(c).(b) +. 1e-9 then ok := false
          done
        done
      done;
      !ok)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_edge_index; prop_dijkstra_triangle ]

let () =
  Alcotest.run "graph"
    [
      ( "edge_index",
        [
          Alcotest.test_case "roundtrip" `Quick test_edge_index_roundtrip;
          Alcotest.test_case "symmetric" `Quick test_edge_index_symmetric;
          Alcotest.test_case "bijective" `Quick test_edge_index_bijective;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "multiplicity" `Quick test_graph_multiplicity;
          Alcotest.test_case "self loop" `Quick test_graph_self_loop_rejected;
          Alcotest.test_case "subgraph/union" `Quick test_graph_subgraph_union;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "path" `Quick test_bfs_path;
          Alcotest.test_case "disconnected" `Quick test_bfs_disconnected;
          Alcotest.test_case "capped" `Quick test_bfs_capped;
          Alcotest.test_case "grid" `Quick test_bfs_grid;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "union_find" `Quick test_union_find;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "spanning forest" `Quick test_spanning_forest;
        ] );
      ( "generators",
        [
          Alcotest.test_case "gnm" `Quick test_gen_gnm;
          Alcotest.test_case "complete" `Quick test_gen_complete;
          Alcotest.test_case "barbell" `Quick test_gen_barbell;
          Alcotest.test_case "lollipop" `Quick test_gen_lollipop;
          Alcotest.test_case "disjoint cliques" `Quick test_gen_disjoint_cliques;
          Alcotest.test_case "preferential attachment" `Quick test_gen_preferential;
          Alcotest.test_case "connected gnp" `Quick test_gen_connected_gnp;
          Alcotest.test_case "watts-strogatz" `Quick test_gen_watts_strogatz;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "basic" `Quick test_weighted_basic;
          Alcotest.test_case "dijkstra vs bfs" `Quick test_dijkstra_matches_bfs;
          Alcotest.test_case "dijkstra weighted" `Quick test_dijkstra_weighted;
        ] );
      ("properties", qcheck_cases);
    ]
