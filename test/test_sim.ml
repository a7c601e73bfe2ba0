open Ds_util
open Ds_graph
open Ds_stream
open Ds_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let make_stream seed ~n =
  let rng = Prng.create seed in
  let g = Gen.connected_gnp rng ~n ~p:0.08 in
  Stream_gen.with_churn (Prng.split rng) ~decoys:200 g

let test_round_robin () =
  let n = 60 in
  let stream = make_stream 1 ~n in
  let r = Cluster_sim.run (Prng.create 2) ~n ~servers:4 stream in
  check_bool "correct" true r.Cluster_sim.forest_correct;
  check_int "all updates counted" (Array.length stream) r.Cluster_sim.updates_total;
  check_int "one message per server" 4 (Array.length r.Cluster_sim.bytes_per_server);
  check_bool "communication accounted" true (r.Cluster_sim.bytes_total > 0)

let test_single_server_degenerate () =
  let n = 40 in
  let stream = make_stream 8 ~n in
  let r = Cluster_sim.run (Prng.create 9) ~n ~servers:1 stream in
  check_bool "one server is just streaming" true r.Cluster_sim.forest_correct;
  check_int "one message" 1 (Array.length r.Cluster_sim.bytes_per_server)

let test_result_independent_of_partition () =
  (* The merged sketch is the sketch of the union however the stream is
     split: with identical seeds every server count gives a byte-identical
     coordinator state, hence the same forest. *)
  let n = 50 in
  let stream = make_stream 10 ~n in
  let merged servers =
    let r =
      Cluster_sim.run_supervised ~plan:Ds_fault.Fault_plan.none (Prng.create 11) ~n ~servers
        stream
    in
    check_bool (Printf.sprintf "%d servers correct" servers) true
      r.Cluster_sim.sup_forest_correct;
    Printf.sprintf "%Lx" r.Cluster_sim.sup_merged_hash
  in
  let one = merged 1 in
  List.iter
    (fun servers ->
      Alcotest.(check string)
        (Printf.sprintf "%d servers merge to the 1-server state" servers)
        one (merged servers))
    [ 2; 3; 4; 7 ]

let test_ship_families () =
  let dim = 512 in
  let rng = Prng.create 30 in
  let updates =
    Array.init 2000 (fun _ -> (Prng.int rng dim, if Prng.bool rng then 1 else -1))
  in
  let reports = Cluster_sim.ship_families (Prng.create 31) ~dim ~servers:4 updates in
  check_bool "at least 4 distinct families" true
    (List.length (List.sort_uniq compare (List.map (fun r -> r.Cluster_sim.family) reports))
    >= 4);
  List.iter
    (fun r ->
      check_bool (r.Cluster_sim.family ^ " merged = direct") true r.Cluster_sim.matches_direct;
      check_bool (r.Cluster_sim.family ^ " wire bytes accounted") true
        (r.Cluster_sim.ship_bytes_total > 0
        && Array.length r.Cluster_sim.ship_bytes_per_server = 4);
      check_bool (r.Cluster_sim.family ^ " state accounted") true
        (r.Cluster_sim.ship_words_per_server > 0))
    reports

let test_ship_single_server () =
  let dim = 128 in
  let rng = Prng.create 32 in
  let updates = Array.init 400 (fun _ -> (Prng.int rng dim, 1)) in
  List.iter
    (fun r -> check_bool (r.Cluster_sim.family ^ " ok") true r.Cluster_sim.matches_direct)
    (Cluster_sim.ship_families (Prng.create 33) ~dim ~servers:1 updates)

let prop_ship_any_servers =
  QCheck.Test.make ~name:"generic shipping matches direct for any server count" ~count:10
    QCheck.(pair small_nat (int_range 1 6))
    (fun (seed, servers) ->
      let dim = 128 in
      let rng = Prng.create (seed + 40) in
      let updates =
        Array.init 500 (fun _ -> (Prng.int rng dim, if Prng.bool rng then 1 else -1))
      in
      Cluster_sim.ship_families (Prng.create (seed + 41)) ~dim ~servers updates
      |> List.for_all (fun r -> r.Cluster_sim.matches_direct))

let prop_sim_any_servers =
  QCheck.Test.make ~name:"cluster sim correct for any server count" ~count:15
    QCheck.(pair small_nat (int_range 1 8))
    (fun (seed, servers) ->
      let n = 30 in
      let stream = make_stream (seed + 20) ~n in
      let r = Cluster_sim.run (Prng.create (seed + 21)) ~n ~servers stream in
      r.Cluster_sim.forest_correct)

let () =
  Alcotest.run "sim"
    [
      ( "cluster",
        [
          Alcotest.test_case "round robin" `Quick test_round_robin;
          Alcotest.test_case "single server" `Quick test_single_server_degenerate;
          Alcotest.test_case "partition independence" `Quick test_result_independent_of_partition;
        ] );
      ( "ship",
        [
          Alcotest.test_case "full family inventory" `Quick test_ship_families;
          Alcotest.test_case "single server" `Quick test_ship_single_server;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_sim_any_servers;
          QCheck_alcotest.to_alcotest prop_ship_any_servers;
        ] );
    ]
