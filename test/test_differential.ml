(* Differential testing: every streaming algorithm against its offline
   reference over randomized (graph family, stream shape, parameter)
   configurations. Complements the per-module suites: here nothing is
   mocked, the whole pipeline runs, and the offline side is computed
   independently. *)

open Ds_util
open Ds_graph
open Ds_stream
open Ds_core

let check_bool = Alcotest.(check bool)

let families seed n =
  let rng = Prng.create seed in
  [
    ("gnp", Gen.connected_gnp (Prng.split rng) ~n ~p:(8.0 /. float_of_int n));
    ("pa", Gen.preferential_attachment (Prng.split rng) ~n ~m:3);
    ("ws", Gen.watts_strogatz (Prng.split rng) ~n ~k:2 ~beta:0.2);
    ("grid", Gen.grid (n / 8) 8);
  ]

let streams rng g =
  [
    ("insert", Stream_gen.insert_only (Prng.split rng) g);
    ("churn", Stream_gen.with_churn (Prng.split rng) ~decoys:(Graph.num_edges g) g);
    ("flap", Stream_gen.flapping (Prng.split rng) ~flaps:(Graph.num_edges g / 2) g);
  ]

let test_spanners_differential () =
  List.iter
    (fun seed ->
      let n = 64 in
      List.iter
        (fun (fname, g) ->
          let rng = Prng.create (seed * 131) in
          List.iter
            (fun (sname, stream) ->
              let k = 2 + (seed mod 2) in
              (* streaming two-pass *)
              let tp =
                Two_pass_spanner.run (Prng.split rng) ~n
                  ~params:(Two_pass_spanner.default_params ~k)
                  stream
              in
              let s_tp = Stretch.multiplicative ~base:g ~spanner:tp.Two_pass_spanner.spanner in
              check_bool
                (Printf.sprintf "two-pass %s/%s k=%d" fname sname k)
                true
                (s_tp.Stretch.violations = 0
                && s_tp.Stretch.max <= float_of_int (1 lsl k)
                && Graph.is_subgraph ~sub:tp.Two_pass_spanner.spanner ~super:g);
              (* offline reference on the same graph *)
              let ob = (Basic_spanner.run (Prng.split rng) ~k g).Basic_spanner.spanner in
              let s_ob = Stretch.multiplicative ~base:g ~spanner:ob in
              check_bool "offline reference bound" true
                (s_ob.Stretch.max <= float_of_int (1 lsl k));
              (* the streaming size should be within a constant of offline *)
              check_bool
                (Printf.sprintf "size comparable %s/%s" fname sname)
                true
                (Graph.num_edges tp.Two_pass_spanner.spanner
                <= (4 * Graph.num_edges ob) + (4 * n)))
            (streams rng g))
        (families seed n))
    [ 1; 2 ]

let test_multipass_vs_offline_bs () =
  List.iter
    (fun seed ->
      let n = 72 in
      let rng = Prng.create (seed * 977) in
      let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.1 in
      let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:300 g in
      let k = 3 in
      let mp =
        Multipass_spanner.run (Prng.split rng) ~n
          ~params:(Multipass_spanner.default_params ~k)
          stream
      in
      let off = Baswana_sen.run (Prng.split rng) ~k g in
      let s_mp = Stretch.multiplicative ~base:g ~spanner:mp.Multipass_spanner.spanner in
      let s_off = Stretch.multiplicative ~base:g ~spanner:off in
      check_bool "both respect 2k-1" true
        (s_mp.Stretch.max <= 5.0 && s_off.Stretch.max <= 5.0);
      check_bool "sizes same order" true
        (Graph.num_edges mp.Multipass_spanner.spanner <= (4 * Graph.num_edges off) + (4 * n)))
    [ 3; 4; 5 ]

let test_additive_vs_offline () =
  List.iter
    (fun seed ->
      let n = 96 in
      let rng = Prng.create (seed * 389) in
      let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.3 in
      let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:400 g in
      let d = 4 in
      let str =
        Additive_spanner.run (Prng.split rng) ~n
          ~params:(Additive_spanner.default_params ~n ~d)
          stream
      in
      let off = Aingworth.run g in
      let s_str = Stretch.additive ~base:g ~spanner:str.Additive_spanner.spanner () in
      let s_off = Stretch.additive ~base:g ~spanner:off () in
      check_bool "offline +2" true (s_off.Stretch.max <= 2.0);
      check_bool "streaming within its bound" true
        (s_str.Stretch.violations = 0
        && s_str.Stretch.max <= Additive_spanner.distortion_bound ~n ~d))
    [ 6; 7 ]

let test_forest_differential () =
  List.iter
    (fun seed ->
      let n = 48 in
      let rng = Prng.create (seed * 613) in
      let g = Gen.gnp (Prng.split rng) ~n ~p:0.07 in
      List.iter
        (fun (sname, stream) ->
          let sk =
            Ds_agm.Agm_sketch.create (Prng.split rng) ~n
              ~params:(Ds_agm.Agm_sketch.default_params ~n)
          in
          Array.iter
            (fun u ->
              Ds_agm.Agm_sketch.update sk ~u:u.Update.u ~v:u.Update.v ~delta:(Update.delta u))
            stream;
          let sketch_forest = Ds_agm.Agm_sketch.spanning_forest sk in
          let offline_forest = Components.spanning_forest g in
          check_bool
            (Printf.sprintf "forest size matches offline (%s)" sname)
            true
            (List.length sketch_forest = List.length offline_forest))
        (streams rng g))
    [ 8; 9; 10 ]

let test_f0_differential () =
  let open Ds_sketch in
  List.iter
    (fun seed ->
      let rng = Prng.create (seed * 83) in
      let dim = 5000 in
      let sk = F0.create (Prng.split rng) ~dim ~params:F0.default_params in
      let model = Hashtbl.create 64 in
      for _ = 1 to 600 do
        let i = Prng.int rng dim in
        match Hashtbl.find_opt model i with
        | Some () when Prng.bool rng ->
            Hashtbl.remove model i;
            F0.update sk ~index:i ~delta:(-1)
        | Some () -> ()
        | None ->
            Hashtbl.add model i ();
            F0.update sk ~index:i ~delta:1
      done;
      let truth = Hashtbl.length model in
      let est = F0.estimate sk in
      check_bool
        (Printf.sprintf "F0 within factor 2 (seed %d: %d vs %d)" seed est truth)
        true
        (est * 2 >= truth && est <= 2 * truth))
    [ 14; 15; 16; 17 ]

let test_sliding_window_spanner () =
  (* Snapshots enter and expire; the spanner of the stream must approximate
     the union of the in-window snapshots, which is the stream's final
     graph. *)
  List.iter
    (fun seed ->
      let n = 48 in
      let rng = Prng.create (seed * 47) in
      let snaps = List.init 5 (fun i -> Gen.gnm (Prng.create (seed + (100 * i))) ~n ~m:60) in
      let stream = Stream_gen.sliding_window (Prng.split rng) ~window:2 snaps in
      let g = Update.final_graph ~n stream in
      let k = 2 in
      let r =
        Two_pass_spanner.run (Prng.split rng) ~n ~params:(Two_pass_spanner.default_params ~k)
          stream
      in
      let s = Stretch.multiplicative ~base:g ~spanner:r.Two_pass_spanner.spanner in
      check_bool
        (Printf.sprintf "sliding window spanner (seed %d)" seed)
        true
        (s.Stretch.violations = 0
        && s.Stretch.max <= float_of_int (1 lsl k)
        && Graph.is_subgraph ~sub:r.Two_pass_spanner.spanner ~super:g))
    [ 20; 21; 22 ]

let () =
  Alcotest.run "differential"
    [
      ( "streaming-vs-offline",
        [
          Alcotest.test_case "spanners all families/streams" `Slow test_spanners_differential;
          Alcotest.test_case "multipass vs BS07" `Slow test_multipass_vs_offline_bs;
          Alcotest.test_case "additive vs ACIM99" `Slow test_additive_vs_offline;
          Alcotest.test_case "forest vs offline" `Slow test_forest_differential;
          Alcotest.test_case "f0 vs model" `Quick test_f0_differential;
          Alcotest.test_case "sliding window spanner" `Slow test_sliding_window_spanner;
        ] );
    ]
