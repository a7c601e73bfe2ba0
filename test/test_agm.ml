open Ds_util
open Ds_graph
open Ds_stream
open Ds_agm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sketch_of_stream rng ~n stream =
  let t = Agm_sketch.create rng ~n ~params:(Agm_sketch.default_params ~n) in
  Array.iter
    (fun u -> Agm_sketch.update t ~u:u.Update.u ~v:u.Update.v ~delta:(Update.delta u))
    stream;
  t

(* A forest is correct for g iff its edges are edges of g and it connects
   exactly the components of g. *)
let forest_is_correct g forest =
  let n = Graph.n g in
  List.for_all (fun (u, v) -> Graph.mem_edge g u v) forest
  &&
  let fg = Graph.create n in
  List.iter (fun (u, v) -> if not (Graph.mem_edge fg u v) then Graph.add_edge fg u v) forest;
  let gl = Components.labels g and fl = Components.labels fg in
  let ok = ref true in
  for a = 0 to n - 1 do
    if (gl.(a) = gl.(0)) <> (fl.(a) = fl.(0)) then () (* labels differ per component id *)
  done;
  (* Same partition: components agree pairwise through label equivalence. *)
  let rep = Hashtbl.create n in
  Array.iteri
    (fun v l ->
      match Hashtbl.find_opt rep l with
      | None -> Hashtbl.add rep l fl.(v)
      | Some fr -> if fr <> fl.(v) then ok := false)
    gl;
  let seen = Hashtbl.create n in
  Hashtbl.iter
    (fun _ fr -> if Hashtbl.mem seen fr then ok := false else Hashtbl.add seen fr ())
    rep;
  !ok

let test_connected_insert_only () =
  for seed = 0 to 4 do
    let rng = Prng.create (100 + seed) in
    let g = Gen.connected_gnp rng ~n:40 ~p:0.08 in
    let stream = Stream_gen.insert_only (Prng.split rng) g in
    let t = sketch_of_stream (Prng.split rng) ~n:40 stream in
    let forest = Agm_sketch.spanning_forest t in
    check_int "tree edges" 39 (List.length forest);
    check_bool "correct forest" true (forest_is_correct g forest)
  done

let test_multiple_components () =
  let rng = Prng.create 7 in
  let g = Gen.disjoint_cliques rng ~count:4 ~size:6 in
  let stream = Stream_gen.insert_only (Prng.split rng) g in
  let t = sketch_of_stream (Prng.split rng) ~n:24 stream in
  let forest = Agm_sketch.spanning_forest t in
  check_int "forest edges" (24 - 4) (List.length forest);
  check_bool "correct forest" true (forest_is_correct g forest)

let test_deletion_heavy () =
  (* Insert a complete graph, delete down to a sparse remnant: sampling the
     prefix fails here; linear sketches must not. *)
  for seed = 0 to 4 do
    let rng = Prng.create (200 + seed) in
    let n = 24 in
    let target = Gen.cycle n in
    let stream = Stream_gen.delete_down_to (Prng.split rng) ~from:(Gen.complete n) target in
    let t = sketch_of_stream (Prng.split rng) ~n stream in
    let forest = Agm_sketch.spanning_forest t in
    check_bool "correct forest after mass deletion" true (forest_is_correct target forest)
  done

let test_churn () =
  let rng = Prng.create 11 in
  let g = Gen.connected_gnp rng ~n:30 ~p:0.1 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:300 g in
  let t = sketch_of_stream (Prng.split rng) ~n:30 stream in
  check_bool "correct under churn" true (forest_is_correct g (Agm_sketch.spanning_forest t))

let test_empty_graph () =
  let t = Agm_sketch.create (Prng.create 1) ~n:8 ~params:(Agm_sketch.default_params ~n:8) in
  check_int "no edges, no forest" 0 (List.length (Agm_sketch.spanning_forest t))

let test_subtract_graph () =
  (* Sketch a graph, subtract a known subgraph, extract the forest of the rest. *)
  let n = 16 in
  let rng = Prng.create 13 in
  let cyc = Gen.cycle n in
  (* G = cycle + chords; subtract the chords, the cycle must remain spanned. *)
  let chords = Gen.gnm (Prng.split rng) ~n ~m:20 in
  let chords = Graph.subgraph chords ~keep:(fun u v -> not (Graph.mem_edge cyc u v)) in
  let g = Graph.union cyc chords in
  let t = sketch_of_stream (Prng.split rng) ~n (Stream_gen.insert_only (Prng.split rng) g) in
  Agm_sketch.subtract_graph t chords;
  let forest = Agm_sketch.spanning_forest t in
  check_bool "forest of the remainder" true (forest_is_correct cyc forest)

let test_supernode_contraction () =
  (* Two cliques with labels contracting each clique: the forest of the
     contracted graph is exactly the bridge. *)
  let n = 12 in
  let g = Gen.barbell 6 in
  let rng = Prng.create 17 in
  let t = sketch_of_stream (Prng.split rng) ~n (Stream_gen.insert_only (Prng.split rng) g) in
  let labels = Array.init n (fun v -> if v < 6 then 0 else 1) in
  let forest = Agm_sketch.spanning_forest ~labels t in
  match forest with
  | [ (a, b) ] ->
      check_bool "bridge endpoints" true ((min a b, max a b) = (5, 6))
  | other -> Alcotest.failf "expected exactly the bridge, got %d edges" (List.length other)

let test_merge_distributed () =
  (* Split a stream across three "servers", sketch independently with shared
     randomness, merge, and extract — the paper's distributed motivation. *)
  let n = 30 in
  let rng = Prng.create 19 in
  let g = Gen.connected_gnp rng ~n ~p:0.12 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:100 g in
  let seed = Prng.create 424242 in
  let mk () = Agm_sketch.create (Prng.copy seed) ~n ~params:(Agm_sketch.default_params ~n) in
  let servers = [| mk (); mk (); mk () |] in
  Array.iteri
    (fun i u ->
      Agm_sketch.update servers.(i mod 3) ~u:u.Update.u ~v:u.Update.v ~delta:(Update.delta u))
    stream;
  Agm_sketch.add servers.(0) servers.(1);
  Agm_sketch.add servers.(0) servers.(2);
  check_bool "merged sketch spans" true
    (forest_is_correct g (Agm_sketch.spanning_forest servers.(0)))

let test_wire_roundtrip () =
  (* Servers serialise their shard sketches; the coordinator rebuilds the
     structure from the shared seed, absorbs the bytes, merges, decodes. *)
  let n = 30 in
  let rng = Prng.create 23 in
  let g = Gen.connected_gnp rng ~n ~p:0.12 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:80 g in
  let seed = Prng.create 777 in
  let params = Agm_sketch.default_params ~n in
  let mk () = Agm_sketch.create (Prng.copy seed) ~n ~params in
  let a = mk () and b = mk () in
  Array.iteri
    (fun i u ->
      let target = if i mod 2 = 0 then a else b in
      Agm_sketch.update target ~u:u.Update.u ~v:u.Update.v ~delta:(Update.delta u))
    stream;
  (* Ship both shards as bytes. *)
  let bytes_a = Agm_sketch.serialize a and bytes_b = Agm_sketch.serialize b in
  check_bool "wire is compact" true
    (String.length bytes_a < 8 * Agm_sketch.space_in_words a);
  let ra = mk () and rb = mk () in
  Agm_sketch.deserialize_into ra bytes_a;
  Agm_sketch.deserialize_into rb bytes_b;
  Agm_sketch.add ra rb;
  check_bool "forest from shipped sketches" true
    (forest_is_correct g (Agm_sketch.spanning_forest ra))

let test_wire_shape_mismatch () =
  let params n = Agm_sketch.default_params ~n in
  let small = Agm_sketch.create (Prng.create 1) ~n:8 ~params:(params 8) in
  let big = Agm_sketch.create (Prng.create 1) ~n:16 ~params:(params 16) in
  let bytes = Agm_sketch.serialize small in
  check_bool "mismatch detected" true
    (try
       Agm_sketch.deserialize_into big bytes;
       false
     with Failure _ -> true)

(* -------------------- Connectivity oracle -------------------- *)

let test_connectivity_oracle () =
  let n = 40 in
  let rng = Prng.create 950 in
  let g = Gen.gnp rng ~n ~p:0.06 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:150 g in
  let c = Connectivity.create (Prng.split rng) ~n ~params:(Agm_sketch.default_params ~n) in
  Array.iter
    (fun u -> Connectivity.update c ~u:u.Update.u ~v:u.Update.v ~delta:(Update.delta u))
    stream;
  let a = Connectivity.freeze c in
  check_int "component count" (Components.count g) (Connectivity.components a);
  let labels = Components.labels g in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      check_bool "pairwise connectivity" (labels.(u) = labels.(v)) (Connectivity.connected a u v)
    done
  done

let test_connectivity_refreeze () =
  let n = 6 in
  let c = Connectivity.create (Prng.create 951) ~n ~params:(Agm_sketch.default_params ~n) in
  Connectivity.update c ~u:0 ~v:1 ~delta:1;
  let a1 = Connectivity.freeze c in
  check_bool "before" true (Connectivity.connected a1 0 1);
  check_bool "before disjoint" false (Connectivity.connected a1 0 2);
  Connectivity.update c ~u:1 ~v:2 ~delta:1;
  let a2 = Connectivity.freeze c in
  check_bool "after" true (Connectivity.connected a2 0 2)

let prop_agm_success_rate =
  QCheck.Test.make ~name:"spanning forest correct on random graphs" ~count:30
    QCheck.small_nat
    (fun seed ->
      let rng = Prng.create (seed + 5000) in
      let g = Gen.gnp rng ~n:20 ~p:0.15 in
      let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:50 g in
      let t = sketch_of_stream (Prng.split rng) ~n:20 stream in
      forest_is_correct g (Agm_sketch.spanning_forest t))

let () =
  Alcotest.run "agm"
    [
      ( "spanning_forest",
        [
          Alcotest.test_case "connected insert-only" `Quick test_connected_insert_only;
          Alcotest.test_case "multiple components" `Quick test_multiple_components;
          Alcotest.test_case "deletion heavy" `Quick test_deletion_heavy;
          Alcotest.test_case "churn" `Quick test_churn;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
        ] );
      ( "linearity",
        [
          Alcotest.test_case "subtract graph" `Quick test_subtract_graph;
          Alcotest.test_case "supernode contraction" `Quick test_supernode_contraction;
          Alcotest.test_case "distributed merge" `Quick test_merge_distributed;
          Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "wire shape mismatch" `Quick test_wire_shape_mismatch;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "oracle" `Quick test_connectivity_oracle;
          Alcotest.test_case "refreeze" `Quick test_connectivity_refreeze;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_agm_success_rate ]);
    ]
