(* Experiment harness: regenerates every table/figure of the reproduction
   (see DESIGN.md section 2 for the experiment index E1..E21). Each
   experiment prints the paper's claim next to the measured quantities; the
   Bechamel suite (E10) times the sketch primitives and full passes.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe e1 e5      -- run selected experiments *)

open Ds_util
open Ds_graph
open Ds_stream
open Ds_core

let line () = Fmt.pr "%s@." (String.make 100 '-')

let header id claim =
  Fmt.pr "@.%s@." (String.make 100 '=');
  Fmt.pr "%s  %s@." id claim;
  Fmt.pr "%s@." (String.make 100 '=')

let master_seed = 20140721 (* PODC'14 *)

(* ------------------------------------------------------------------ *)
(* E1: Theorem 1 — two-pass 2^k spanner: size, stretch, space          *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1" "Theorem 1: two-pass 2^k-spanner; size O(k n^(1+1/k) log n), stretch <= 2^k";
  Fmt.pr "%-6s %-3s %-7s %-8s %-10s %-9s %-7s %-10s %-12s@." "n" "k" "|E|" "|H|" "size-bnd"
    "stretch" "2^k" "space(w)" "space-bnd(w)";
  line ();
  List.iter
    (fun (n, k) ->
      let rng = Prng.create (master_seed + n + (1000 * k)) in
      let g = Gen.connected_gnp (Prng.split rng) ~n ~p:(12.0 /. float_of_int n) in
      let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:(2 * Graph.num_edges g) g in
      let r =
        Two_pass_spanner.run (Prng.split rng) ~n ~params:(Two_pass_spanner.default_params ~k)
          stream
      in
      let s = Stretch.multiplicative ~base:g ~spanner:r.Two_pass_spanner.spanner in
      Fmt.pr "%-6d %-3d %-7d %-8d %-10.0f %-9.1f %-7d %-10d %-12.0f@." n k (Graph.num_edges g)
        (Graph.num_edges r.Two_pass_spanner.spanner)
        (Basic_spanner.size_bound ~n ~k)
        s.Stretch.max (1 lsl k) r.Two_pass_spanner.space_words
        (Two_pass_spanner.space_bound ~n ~k);
      Gc.compact ())
    [ (64, 2); (128, 2); (256, 2); (64, 3); (128, 3); (256, 3); (384, 3); (128, 4); (256, 4) ];
  Fmt.pr "shape check: |H| grows ~ n^(1+1/k) at fixed k; measured stretch never exceeds 2^k.@."

(* ------------------------------------------------------------------ *)
(* E2: streaming vs offline baselines                                  *)
(* ------------------------------------------------------------------ *)

let e2 () =
  header "E2" "Theorem 1 vs offline baselines (same graphs): size/stretch per algorithm";
  let n = 192 in
  Fmt.pr "%-26s %-3s %-8s %-9s %-9s %-8s@." "algorithm" "k" "passes" "|H|" "stretch" "bound";
  line ();
  List.iter
    (fun k ->
      let rng = Prng.create (master_seed + 17 + k) in
      let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.08 in
      let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:2000 g in
      let row name passes spanner bound =
        let s = Stretch.multiplicative ~base:g ~spanner in
        Fmt.pr "%-26s %-3d %-8s %-9d %-9.1f %-8d@." name k passes (Graph.num_edges spanner)
          s.Stretch.max bound
      in
      let tp =
        Two_pass_spanner.run (Prng.split rng) ~n ~params:(Two_pass_spanner.default_params ~k)
          stream
      in
      row "two-pass (this paper)" "2" tp.Two_pass_spanner.spanner (1 lsl k);
      let mp =
        Multipass_spanner.run (Prng.split rng) ~n
          ~params:(Multipass_spanner.default_params ~k)
          stream
      in
      row "k-pass sketch BS [AGM12b]" (string_of_int mp.Multipass_spanner.passes)
        mp.Multipass_spanner.spanner
        (Multipass_spanner.stretch_bound ~k);
      row "offline basic (Sec 3.1)" "-"
        (Basic_spanner.run (Prng.split rng) ~k g).Basic_spanner.spanner (1 lsl k);
      row "Baswana-Sen [BS07]" "-" (Baswana_sen.run (Prng.split rng) ~k g) ((2 * k) - 1);
      row "greedy [Althofer]" "-" (Greedy_spanner.run ~k g) ((2 * k) - 1);
      line ();
      Gc.compact ())
    [ 2; 3 ];
  Fmt.pr "expected: offline (2k-1) baselines are smaller/tighter; the streaming cost is the@.";
  Fmt.pr "2^k stretch and log-factor size overhead -- the paper's stated tradeoff.@."

(* ------------------------------------------------------------------ *)
(* E3: stretch distribution vs k (figure-style series)                 *)
(* ------------------------------------------------------------------ *)

let e3 () =
  header "E3" "Lemma 13 shape: distribution of per-edge stretch as k grows (fixed graph)";
  let n = 256 in
  let rng = Prng.create (master_seed + 3) in
  let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.05 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:3000 g in
  Fmt.pr "%-3s %-8s %-8s %-8s %-8s %-8s %-9s@." "k" "|H|" "mean" "p50" "p95" "max" "bound 2^k";
  line ();
  List.iter
    (fun k ->
      let r =
        Two_pass_spanner.run (Prng.split rng) ~n ~params:(Two_pass_spanner.default_params ~k)
          stream
      in
      let s = Stretch.multiplicative ~base:g ~spanner:r.Two_pass_spanner.spanner in
      Fmt.pr "%-3d %-8d %-8.2f %-8.1f %-8.1f %-8.1f %-9d@." k
        (Graph.num_edges r.Two_pass_spanner.spanner)
        s.Stretch.mean s.Stretch.p50 s.Stretch.p95 s.Stretch.max (1 lsl k);
      Gc.compact ())
    [ 1; 2; 3; 4; 5 ];
  Fmt.pr "expected: size falls and the stretch distribution shifts right as k grows, always@.";
  Fmt.pr "below 2^k -- the exponential-diameter clusters of Section 3 in action.@."

(* ------------------------------------------------------------------ *)
(* E4: Theorem 3 — additive spanner                                    *)
(* ------------------------------------------------------------------ *)

let e4 () =
  header "E4" "Theorem 3: single-pass n/d-additive spanner in ~O(nd) space";
  Fmt.pr "%-16s %-6s %-3s %-7s %-8s %-9s %-10s %-10s %-12s@." "graph" "n" "d" "|E|" "|H|"
    "surplus" "bound" "space(w)" "space-bnd(w)";
  line ();
  let cases =
    [
      ("gnp-sparse", Gen.connected_gnp (Prng.create 1) ~n:192 ~p:0.06, 4);
      ("gnp-dense", Gen.connected_gnp (Prng.create 2) ~n:192 ~p:0.35, 4);
      ("gnp-dense", Gen.connected_gnp (Prng.create 3) ~n:192 ~p:0.35, 8);
      ("pref-attach", Gen.preferential_attachment (Prng.create 4) ~n:192 ~m:6, 4);
      ("clique", Gen.complete 128, 2);
      ("clique", Gen.complete 128, 8);
      ("clique-chain", Gen.lollipop 96 64, 4);
    ]
  in
  List.iter
    (fun (name, g, d) ->
      let n = Graph.n g in
      let rng = Prng.create (master_seed + n + d) in
      let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:1000 g in
      let r =
        Additive_spanner.run (Prng.split rng) ~n
          ~params:(Additive_spanner.default_params ~n ~d)
          stream
      in
      let s = Stretch.additive ~base:g ~spanner:r.Additive_spanner.spanner () in
      Fmt.pr "%-16s %-6d %-3d %-7d %-8d %-9.0f %-10.0f %-10d %-12.0f@." name n d
        (Graph.num_edges g)
        (Graph.num_edges r.Additive_spanner.spanner)
        s.Stretch.max
        (Additive_spanner.distortion_bound ~n ~d)
        r.Additive_spanner.space_words
        (Additive_spanner.space_bound ~n ~d);
      Gc.compact ())
    cases;
  Fmt.pr "expected: surplus well under the O(n/d) bound; space grows linearly with d;@.";
  Fmt.pr "dense graphs compress hard (everything is high-degree, only stars+forest remain).@.";
  (* Offline additive baseline for context: ACIM99's +2-spanner. *)
  Fmt.pr "@.-- offline baseline [ACIM99] (+2 additive, needs the whole graph)@.";
  Fmt.pr "%-16s %-6s %-7s %-8s %-9s@." "graph" "n" "|E|" "|H|" "surplus";
  line ();
  List.iter
    (fun (name, g) ->
      let h = Aingworth.run g in
      let s = Stretch.additive ~base:g ~spanner:h () in
      Fmt.pr "%-16s %-6d %-7d %-8d %-9.0f@." name (Graph.n g) (Graph.num_edges g)
        (Graph.num_edges h) s.Stretch.max;
      Gc.compact ())
    [
      ("gnp-dense", Gen.connected_gnp (Prng.create 2) ~n:192 ~p:0.35);
      ("clique", Gen.complete 128);
    ];
  Fmt.pr "expected: +2 surplus at ~n^1.5 size -- stronger distortion, offline-only,@.";
  Fmt.pr "which is the gap Theorem 3's single-pass algorithm fills.@."

(* ------------------------------------------------------------------ *)
(* E5: Theorem 4 — the INDEX lower-bound game                          *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header "E5" "Theorem 4: Omega(nd) lower bound -- success of the INDEX game vs space budget";
  (* Blocks must be denser than the algorithm's low-degree threshold at the
     starved end of the sweep, otherwise the neighbourhood sketches decode
     every block exactly and space never binds. *)
  let n = 64 and d = 32 in
  Fmt.pr "instance: %d blocks of G(%d, 1/2); nd = %d@." (3 * n / d) d (n * d);
  Fmt.pr "%-8s %-14s %-12s %-12s@." "budget" "space(words)" "success" "distortion";
  line ();
  List.iter
    (fun budget ->
      let o =
        Ind_game.play (Prng.create (master_seed + budget)) ~n ~d ~algo_budget:budget ~trials:20
      in
      Fmt.pr "%-8d %-14.0f %-12.2f %-12.1f@." budget o.Ind_game.mean_space_words
        (Ind_game.success_rate o) o.Ind_game.mean_distortion;
      Gc.compact ())
    [ 1; 2; 3; 4; 6 ];
  Fmt.pr "expected: success rises from coin-flipping toward 1 as the algorithm's space@.";
  Fmt.pr "crosses Theta(nd) -- the information-theoretic wall of Theorem 4.@."

(* ------------------------------------------------------------------ *)
(* E6: Corollary 2 — two-pass spectral sparsifier                      *)
(* ------------------------------------------------------------------ *)

let pencil g h = Ds_linalg.Spectral.pencil_bounds ~base:(Weighted_graph.of_graph g) ~candidate:h

let e6 () =
  header "E6" "Corollary 2: two-pass spectral sparsifier -- quality vs rounds Z (fixed graph)";
  let n = 64 in
  let rng = Prng.create (master_seed + 6) in
  let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.3 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:500 g in
  Fmt.pr "graph: n=%d |E|=%d; oracle stretch 2^2, shift 2@." n (Graph.num_edges g);
  Fmt.pr "%-5s %-8s %-12s %-12s %-12s@." "Z" "|H|" "lambda_min" "lambda_max" "space(w)";
  line ();
  List.iter
    (fun z ->
      let prm = { (Sparsify.default_params ~k:2 ~eps:0.5 ~n) with Sparsify.z_rounds = z } in
      let r = Sparsify.run (Prng.split rng) ~n ~params:prm stream in
      let b = pencil g r.Sparsify.sparsifier in
      Fmt.pr "%-5d %-8d %-12.3f %-12.3f %-12d@." z
        (Weighted_graph.num_edges r.Sparsify.sparsifier)
        b.Ds_linalg.Spectral.lambda_min b.Ds_linalg.Spectral.lambda_max r.Sparsify.space_words;
      Gc.compact ())
    [ 4; 8; 16; 32 ];
  Fmt.pr "space bound (Cor 2, eps=0.5): %.0f words-order@." (Sparsify.space_bound ~n ~eps:0.5);
  Fmt.pr "expected: pencil bounds tighten toward [1-eps, 1+eps] as Z grows like@.";
  Fmt.pr "the paper's Z = O(alpha^2 log n / eps^3) -- convergence, not free lunch.@."

(* ------------------------------------------------------------------ *)
(* E7: sparsifier baselines/ablation                                   *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header "E7" "Theorem 7 baseline + oracle ablation: who pays what for streaming";
  let n = 64 in
  let rng = Prng.create (master_seed + 7) in
  let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.3 in
  let stream = Stream_gen.insert_only (Prng.split rng) g in
  let wg = Weighted_graph.of_graph g in
  Fmt.pr "%-34s %-8s %-12s %-12s@." "algorithm" "|H|" "lambda_min" "lambda_max";
  line ();
  let base_prm = { (Sparsify.default_params ~k:2 ~eps:0.5 ~n) with Sparsify.z_rounds = 16 } in
  let r1 = Sparsify.run (Prng.split rng) ~n ~params:base_prm stream in
  let b1 = pencil g r1.Sparsify.sparsifier in
  Fmt.pr "%-34s %-8d %-12.3f %-12.3f@." "two-pass, spanner oracle (Cor 2)"
    (Weighted_graph.num_edges r1.Sparsify.sparsifier)
    b1.Ds_linalg.Spectral.lambda_min b1.Ds_linalg.Spectral.lambda_max;
  Gc.compact ();
  let exact_prm =
    {
      base_prm with
      Sparsify.estimate =
        { base_prm.Sparsify.estimate with Estimate.mode = Estimate.Exact_resistance };
    }
  in
  let r2 = Sparsify.run (Prng.split rng) ~n ~params:exact_prm stream in
  let b2 = pencil g r2.Sparsify.sparsifier in
  Fmt.pr "%-34s %-8d %-12.3f %-12.3f@." "two-pass, exact-R oracle (ablation)"
    (Weighted_graph.num_edges r2.Sparsify.sparsifier)
    b2.Ds_linalg.Spectral.lambda_min b2.Ds_linalg.Spectral.lambda_max;
  Gc.compact ();
  let h = Ss_sparsifier.run (Prng.split rng) ~eps:0.5 wg in
  let b3 = Ds_linalg.Spectral.pencil_bounds ~base:wg ~candidate:h in
  Fmt.pr "%-34s %-8d %-12.3f %-12.3f@." "offline SS08 (Theorem 7)"
    (Weighted_graph.num_edges h) b3.Ds_linalg.Spectral.lambda_min
    b3.Ds_linalg.Spectral.lambda_max;
  let p = Uniform_sparsifier.matching_p ~target_edges:(Weighted_graph.num_edges h) wg in
  let hu = Uniform_sparsifier.run (Prng.split rng) ~p wg in
  let b4 = Ds_linalg.Spectral.pencil_bounds ~base:wg ~candidate:hu in
  Fmt.pr "%-34s %-8d %-12.3f %-12.3f@." "uniform sampling (naive)"
    (Weighted_graph.num_edges hu) b4.Ds_linalg.Spectral.lambda_min
    b4.Ds_linalg.Spectral.lambda_max;
  Fmt.pr "expected: SS08 (sees everything, exact R_e) is tightest; the exact-R ablation@.";
  Fmt.pr "isolates the oracle's share of the streaming pipeline's looseness. Uniform@.";
  Fmt.pr "sampling holds on this expander but catastrophically loses sparse cuts@.";
  Fmt.pr "(see the barbell test in test/test_sparsifier.ml) -- why importance matters.@."

(* ------------------------------------------------------------------ *)
(* E8: Theorem 10 — AGM spanning forest under deletions                *)
(* ------------------------------------------------------------------ *)

let e8 () =
  header "E8" "Theorem 10: AGM spanning forest correctness/space under adversarial deletions";
  Fmt.pr "%-10s %-16s %-10s %-12s %-12s@." "n" "stream" "del-frac" "success" "space(w)";
  line ();
  let forest_correct g forest =
    let n = Graph.n g in
    List.for_all (fun (u, v) -> Graph.mem_edge g u v) forest
    && begin
      let fg = Graph.create n in
      List.iter (fun (u, v) -> if not (Graph.mem_edge fg u v) then Graph.add_edge fg u v) forest;
      Components.count fg = Components.count g
      && List.length forest = n - Components.count g
    end
  in
  let run_case n mk_stream label =
    let trials = 10 in
    let ok = ref 0 and words = ref 0 and delfrac = ref 0.0 in
    for t = 1 to trials do
      let rng = Prng.create (master_seed + (1000 * n) + t) in
      let g, stream = mk_stream rng in
      let sk =
        Ds_agm.Agm_sketch.create (Prng.split rng) ~n
          ~params:(Ds_agm.Agm_sketch.default_params ~n)
      in
      Array.iter
        (fun u ->
          Ds_agm.Agm_sketch.update sk ~u:u.Update.u ~v:u.Update.v ~delta:(Update.delta u))
        stream;
      if forest_correct g (Ds_agm.Agm_sketch.spanning_forest sk) then incr ok;
      words := Ds_agm.Agm_sketch.space_in_words sk;
      let dels =
        Array.fold_left (fun a u -> if u.Update.sign = Update.Delete then a + 1 else a) 0 stream
      in
      delfrac := float_of_int dels /. float_of_int (max 1 (Array.length stream))
    done;
    Fmt.pr "%-10d %-16s %-10.2f %-12s %-12d@." n label !delfrac
      (Printf.sprintf "%d/%d" !ok trials)
      !words;
    Gc.compact ()
  in
  List.iter
    (fun n ->
      run_case n
        (fun rng ->
          let g = Gen.gnp (Prng.split rng) ~n ~p:(8.0 /. float_of_int n) in
          (g, Stream_gen.insert_only (Prng.split rng) g))
        "insert-only";
      run_case n
        (fun rng ->
          let g = Gen.gnp (Prng.split rng) ~n ~p:(8.0 /. float_of_int n) in
          (g, Stream_gen.with_churn (Prng.split rng) ~decoys:(4 * Graph.num_edges g) g))
        "churn-4x")
    [ 64; 128; 256 ];
  run_case 96
    (fun rng ->
      let target = Gen.cycle 96 in
      (target, Stream_gen.delete_down_to (Prng.split rng) ~from:(Gen.complete 96) target))
    "delete-98%";
  Fmt.pr "expected: correctness independent of deletion fraction (linearity), space ~ n polylog.@."

(* ------------------------------------------------------------------ *)
(* E9: sketch primitives                                               *)
(* ------------------------------------------------------------------ *)

let e9 () =
  header "E9" "Theorems 8/9 stand-ins: recovery success, F0 accuracy, L0 uniformity";
  let open Ds_sketch in
  Fmt.pr "-- s-sparse recovery: success vs load (budget s = 8, 200 trials/row)@.";
  Fmt.pr "%-12s %-10s %-12s@." "support/s" "success" "wrong";
  line ();
  List.iter
    (fun frac ->
      let s = 8 in
      let support = max 1 (int_of_float (frac *. float_of_int s)) in
      let ok = ref 0 and wrong = ref 0 in
      let rng = Prng.create (master_seed + support) in
      for t = 1 to 200 do
        let sk =
          Sparse_recovery.create
            (Prng.create (master_seed + (1000 * support) + t))
            ~dim:50000
            ~params:(Sparse_recovery.default_params ~sparsity:s)
        in
        let truth = Hashtbl.create support in
        while Hashtbl.length truth < support do
          let i = Prng.int rng 50000 in
          if not (Hashtbl.mem truth i) then Hashtbl.add truth i (1 + Prng.int rng 9)
        done;
        Hashtbl.iter (fun i w -> Sparse_recovery.update sk ~index:i ~delta:w) truth;
        match Sparse_recovery.decode sk with
        | Found assoc ->
            let sorted = List.sort compare assoc in
            let expected =
              List.sort compare (Hashtbl.fold (fun i w acc -> (i, w) :: acc) truth [])
            in
            if sorted = expected then incr ok else incr wrong
        | Empty | Declined -> ()
      done;
      Fmt.pr "%-12.2f %-10.2f %-12d@." frac (float_of_int !ok /. 200.0) !wrong)
    [ 0.25; 0.5; 0.75; 1.0; 1.5; 2.0; 4.0 ];
  Fmt.pr "expected: ~1.0 success up to load 1.0, detected (never wrong) failures beyond.@.";
  Fmt.pr "@.-- F0 estimation (Theorem 9 stand-in): relative error vs true support@.";
  Fmt.pr "%-10s %-12s %-10s@." "F0" "estimate" "rel-err";
  line ();
  List.iter
    (fun f0 ->
      let sk =
        F0.create (Prng.create (master_seed + f0)) ~dim:100000 ~params:F0.default_params
      in
      for i = 0 to f0 - 1 do
        F0.update sk ~index:(i * 7) ~delta:1
      done;
      let e = F0.estimate sk in
      Fmt.pr "%-10d %-12d %-10.2f@." f0 e
        (abs_float (float_of_int e -. float_of_int f0) /. float_of_int (max 1 f0)))
    [ 4; 32; 256; 2048; 14000 ];
  Fmt.pr "expected: exact below the level-0 budget, constant-factor above (gate quality).@.";
  Fmt.pr "@.-- L0 sampler uniformity: TV distance from uniform over a 16-element support@.";
  let support = Array.init 16 (fun i -> (i * 61) + 7) in
  let counts = Array.make 16 0 in
  let trials = 2000 in
  let failures = ref 0 in
  for t = 0 to trials - 1 do
    let sk =
      L0_sampler.create
        (Prng.create (master_seed + t))
        ~dim:1024 ~params:L0_sampler.default_params
    in
    Array.iter (fun i -> L0_sampler.update sk ~index:i ~delta:1) support;
    match L0_sampler.decode sk with
    | Found (i, _) -> Array.iteri (fun j v -> if v = i then counts.(j) <- counts.(j) + 1) support
    | Empty | Declined -> incr failures
  done;
  let tv = Stats.total_variation (Array.map float_of_int counts) (Array.make 16 1.0) in
  Fmt.pr "trials=%d failures=%d TV=%.3f (perfectly uniform = 0)@." trials !failures tv;
  Fmt.pr "expected: small TV, sub-1%% failures -- the AGM substrate's contract.@."

(* ------------------------------------------------------------------ *)
(* E11: ablations of the engineering knobs                             *)
(* ------------------------------------------------------------------ *)

let e11 () =
  (* No payload row: at n = 128 every terminal cluster stores exact member
     counts, so a Packed_l0 setting changes nothing here. *)
  header "E11"
    "Ablations: sketch budget, table capacity; weight classes (payload sampler: E22)";
  let n = 128 in
  let k = 3 in
  let rng = Prng.create (master_seed + 11) in
  let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.08 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:1500 g in
  Fmt.pr "%-34s %-8s %-9s %-9s %-12s %-10s@." "variant" "|H|" "stretch" "viol" "decode-fails"
    "space(w)";
  line ();
  let base = Two_pass_spanner.default_params ~k in
  let try_variant name prm =
    let r = Two_pass_spanner.run (Prng.split rng) ~n ~params:prm stream in
    let s = Stretch.multiplicative ~base:g ~spanner:r.Two_pass_spanner.spanner in
    let d = r.Two_pass_spanner.diagnostics in
    let fails =
      d.Two_pass_spanner.pass1_decode_failures + d.Two_pass_spanner.table_decode_failures
      + d.Two_pass_spanner.payload_decode_failures
    in
    Fmt.pr "%-34s %-8d %-9.1f %-9d %-12d %-10d@." name
      (Graph.num_edges r.Two_pass_spanner.spanner)
      s.Stretch.max s.Stretch.violations fails r.Two_pass_spanner.space_words;
    Gc.compact ()
  in
  try_variant "default (B=8, cap=3.0)" base;
  try_variant "sketch budget B=4" { base with Two_pass_spanner.sketch_sparsity = 4 };
  try_variant "sketch budget B=16" { base with Two_pass_spanner.sketch_sparsity = 16 };
  try_variant "table capacity factor 1.0" { base with Two_pass_spanner.capacity_factor = 1.0 };
  Fmt.pr "@.-- Remark 14: weighted graphs via weight classes (gamma sweep)@.";
  Fmt.pr "%-8s %-9s %-8s %-10s %-12s@." "gamma" "classes" "|H|" "stretch" "bound";
  line ();
  let wrng = Prng.create (master_seed + 111) in
  let g0 = Gen.connected_gnp wrng ~n:96 ~p:0.1 in
  let wg = Weighted_graph.create 96 in
  Graph.iter_edges g0 (fun u v ->
      Weighted_graph.add_edge wg u v (2.0 ** float_of_int (Prng.int wrng 6)));
  let wstream =
    Array.of_list
      (List.map
         (fun (u, v, w) -> { Update.wu = u; wv = v; weight = w; wsign = Update.Insert })
         (Weighted_graph.edges wg))
  in
  List.iter
    (fun gamma ->
      let r =
        Weighted_spanner.run (Prng.split wrng) ~n:96
          ~params:(Two_pass_spanner.default_params ~k:2)
          ~gamma ~w_min:1.0 ~w_max:32.0 wstream
      in
      let s = Stretch.multiplicative_weighted ~base:wg ~spanner:r.Weighted_spanner.spanner in
      Fmt.pr "%-8.2f %-9d %-8d %-10.2f %-12.2f@." gamma r.Weighted_spanner.classes
        (Weighted_graph.num_edges r.Weighted_spanner.spanner)
        s.Stretch.max
        (Weighted_spanner.stretch_bound ~k:2 ~gamma);
      Gc.compact ())
    [ 0.25; 0.5; 1.0 ];
  Fmt.pr "expected: smaller gamma = more classes = more space but tighter weighted stretch.@."

(* ------------------------------------------------------------------ *)
(* E13: the distributed setting — communication vs number of servers    *)
(* ------------------------------------------------------------------ *)

let e13 () =
  header "E13" "Distributed setting (Sec 1): per-server state & wire bytes vs server count";
  let n = 192 in
  let rng = Prng.create (master_seed + 13) in
  let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.06 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:(2 * Graph.num_edges g) g in
  Fmt.pr "graph: n=%d |E|=%d, stream %d updates (raw stream ~ %d bytes/server if re-shipped)@."
    n (Graph.num_edges g) (Array.length stream) (Array.length stream * 8);
  Fmt.pr "%-9s %-12s %-16s %-14s %-10s@." "servers" "upd/server" "state(w)/server" "bytes total"
    "correct";
  line ();
  List.iter
    (fun servers ->
      let r = Ds_sim.Cluster_sim.run (Prng.split rng) ~n ~servers stream in
      Fmt.pr "%-9d %-12d %-16d %-14d %-10b@." servers
        (Array.length stream / servers)
        r.Ds_sim.Cluster_sim.words_per_server r.Ds_sim.Cluster_sim.bytes_total
        r.Ds_sim.Cluster_sim.forest_correct;
      Gc.compact ())
    [ 1; 2; 4; 8; 16 ];
  Fmt.pr "expected: correctness at every partition; total communication grows ~linearly@.";
  Fmt.pr "with servers (one fixed-size message each) while per-server load drops -- the@.";
  Fmt.pr "mergeability dividend of linear sketches.@.";
  (* The same round-trip across the full registered sketch inventory, via
     the generic linear-sketch interface. *)
  let dim = 4096 and servers = 8 in
  let updates =
    Array.init 20_000 (fun _ -> (Prng.int rng dim, if Prng.bool rng then 1 else -1))
  in
  Fmt.pr "@.full inventory shipped over the generic interface (dim=%d, %d updates, %d servers):@."
    dim (Array.length updates) servers;
  Fmt.pr "%-16s %-13s %-16s %-16s %-8s@." "family" "wire bytes" "bytes/server" "state(w)/server"
    "merged=direct";
  line ();
  List.iter
    (fun (r : Ds_sim.Cluster_sim.ship_report) ->
      Fmt.pr "%-16s %-13d %-16d %-16d %-8b@." r.Ds_sim.Cluster_sim.family
        r.Ds_sim.Cluster_sim.ship_bytes_total
        (Array.fold_left max 0 r.Ds_sim.Cluster_sim.ship_bytes_per_server)
        r.Ds_sim.Cluster_sim.ship_words_per_server r.Ds_sim.Cluster_sim.matches_direct)
    (Ds_sim.Cluster_sim.ship_families (Prng.split rng) ~dim ~servers updates);
  Fmt.pr "expected: merged=direct for every family -- the coordinator's deserialized sum@.";
  Fmt.pr "is byte-identical to sketching the stream in one process.@."

(* ------------------------------------------------------------------ *)
(* E10: throughput (Bechamel)                                          *)
(* ------------------------------------------------------------------ *)

let e10 () =
  header "E10" "Throughput: ns per operation for each sketch primitive and full passes";
  let open Bechamel in
  let open Bechamel.Toolkit in
  let open Ds_sketch in
  let n = 256 in
  let dim = Edge_index.dim n in
  let rng = Prng.create (master_seed + 10) in
  let updates =
    Array.init 4096 (fun _ -> (Prng.int rng dim, if Prng.bool rng then 1 else -1))
  in
  let cursor = ref 0 in
  let next () =
    let u = updates.(!cursor land 4095) in
    incr cursor;
    u
  in
  let one_sparse = One_sparse.create (Prng.split rng) ~dim in
  let sr =
    Sparse_recovery.create (Prng.split rng) ~dim
      ~params:(Sparse_recovery.default_params ~sparsity:8)
  in
  let l0 = L0_sampler.create (Prng.split rng) ~dim ~params:L0_sampler.default_params in
  let f0 = F0.create (Prng.split rng) ~dim ~params:F0.default_params in
  let agm =
    Ds_agm.Agm_sketch.create (Prng.split rng) ~n ~params:(Ds_agm.Agm_sketch.default_params ~n)
  in
  let tests =
    [
      Test.make ~name:"one_sparse.update"
        (Staged.stage (fun () ->
             let i, d = next () in
             One_sparse.update one_sparse ~index:i ~delta:d));
      Test.make ~name:"sparse_recovery.update(s=8)"
        (Staged.stage (fun () ->
             let i, d = next () in
             Sparse_recovery.update sr ~index:i ~delta:d));
      Test.make ~name:"l0_sampler.update"
        (Staged.stage (fun () ->
             let i, d = next () in
             L0_sampler.update l0 ~index:i ~delta:d));
      Test.make ~name:"f0.update"
        (Staged.stage (fun () ->
             let i, d = next () in
             F0.update f0 ~index:i ~delta:d));
      Test.make ~name:"agm.update(n=256)"
        (Staged.stage (fun () ->
             let i, _ = next () in
             let u, v = Edge_index.decode ~n i in
             Ds_agm.Agm_sketch.update agm ~u ~v ~delta:1));
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  Fmt.pr "%-30s %-14s@." "operation" "ns/op";
  line ();
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some [ t ] -> Fmt.pr "%-30s %-14.1f@." name t
          | Some _ | None -> Fmt.pr "%-30s (no estimate)@." name)
        results)
    tests;
  (* Full-pass wall-clock rates (dominated by structure building, so timed
     end-to-end rather than with bechamel). *)
  let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.05 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:2000 g in
  let time f =
    let t0 = Ds_obs.Clock.now_ns () in
    f ();
    Bench_kit.seconds_since t0
  in
  let t_spanner =
    time (fun () ->
        ignore
          (Two_pass_spanner.run (Prng.split rng) ~n
             ~params:(Two_pass_spanner.default_params ~k:3)
             stream))
  in
  let t_additive =
    time (fun () ->
        ignore
          (Additive_spanner.run (Prng.split rng) ~n
             ~params:(Additive_spanner.default_params ~n ~d:4)
             stream))
  in
  Fmt.pr "%-30s %-14.0f (end-to-end, n=%d, %d updates x 2 passes)@." "two_pass_spanner/update"
    (1e9 *. t_spanner /. float_of_int (2 * Array.length stream))
    n (Array.length stream);
  Fmt.pr "%-30s %-14.0f (end-to-end, single pass)@." "additive_spanner/update"
    (1e9 *. t_additive /. float_of_int (Array.length stream))

(* ------------------------------------------------------------------ *)
(* E15: chaos — the supervised coordinator under deterministic faults   *)
(* ------------------------------------------------------------------ *)

let e15 () =
  header "E15" "Fault injection: self-healing coordinator vs fault rate and server count";
  let n = 128 in
  let rng = Prng.create (master_seed + 15) in
  let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.06 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:(Graph.num_edges g) g in
  let module CS = Ds_sim.Cluster_sim in
  let module FP = Ds_fault.Fault_plan in
  let supervised ?allow_reingest ~plan ~servers () =
    CS.run_supervised ?allow_reingest ~plan (Prng.create (master_seed + 15)) ~n ~servers stream
  in
  Fmt.pr "graph: n=%d |E|=%d, stream %d updates@." n (Graph.num_edges g) (Array.length stream);
  let clean = supervised ~plan:FP.none ~servers:4 () in
  Fmt.pr "fault-free reference: hash=%016Lx forest correct=%b@." clean.CS.sup_merged_hash
    clean.CS.sup_forest_correct;
  Fmt.pr "@.healing sweep (re-ingestion on): merged state must equal the reference bit for bit@.";
  Fmt.pr "%-8s %-9s %-9s %-8s %-9s %-9s %-11s %-10s %-9s@." "servers" "rate" "attempts"
    "faults" "retries" "crashed" "recov(B)" "overhead" "healed";
  line ();
  List.iter
    (fun servers ->
      (* Fault-free wall clock for this server count, the overhead baseline. *)
      let t0 = Ds_obs.Clock.now_ns () in
      ignore (supervised ~plan:FP.none ~servers ());
      let base = Bench_kit.seconds_since t0 in
      List.iter
        (fun rate ->
          let plan = FP.random ~seed:(master_seed + servers) ~rate in
          let t1 = Ds_obs.Clock.now_ns () in
          let r = supervised ~plan ~servers () in
          let dt = Bench_kit.seconds_since t1 in
          let healed =
            r.CS.sup_merged_hash = clean.CS.sup_merged_hash
            && r.CS.sup_forest_correct
            && r.CS.sup_quorum = r.CS.sup_copies
          in
          Fmt.pr "%-8d %-9.2f %-9d %-8d %-9d %-9d %-11d %-10.2f %-9b@." servers rate
            r.CS.sup_attempts r.CS.sup_faults r.CS.sup_retries
            (List.length r.CS.sup_crashed_servers)
            r.CS.sup_recovery_bytes (dt /. base) healed;
          Gc.compact ())
        [ 0.02; 0.05; 0.1; 0.2; 0.4 ])
    [ 2; 4; 8 ];
  Fmt.pr "expected: healed=true at every rate -- by linearity the re-ingested sum is the@.";
  Fmt.pr "fault-free sum; overhead grows with the recovery traffic, not with the rate alone.@.";
  (* Degraded decoding: recovery forbidden, repetitions knocked out one by
     one by persistently dropping one server's envelope. *)
  let servers = 4 in
  let copies = clean.CS.sup_copies in
  Fmt.pr "@.degraded decoding (re-ingestion off, %d repetitions budgeted):@." copies;
  Fmt.pr "%-14s %-9s %-16s %-9s@." "lost reps" "quorum" "certified delta" "correct";
  line ();
  List.iter
    (fun lost ->
      let drops =
        List.concat_map
          (fun m -> List.init Ds_fault.Supervisor.max_attempts (fun a -> ((1, m, a), FP.Drop)))
          (List.init lost (fun m -> m))
      in
      let plan = FP.of_list ~seed:(master_seed + lost) drops in
      let r = supervised ~allow_reingest:false ~plan ~servers () in
      Fmt.pr "%-14d %-9d %-16g %-9b@." lost r.CS.sup_quorum r.CS.sup_degraded_delta
        r.CS.sup_forest_correct;
      Gc.compact ())
    [ 0; 1; 2; 3; 4 ];
  Fmt.pr "expected: every lost repetition halves the certified confidence (doubles delta);@.";
  Fmt.pr "decoding keeps succeeding from the surviving quorum until the budget nears the@.";
  Fmt.pr "ceil(log2 n) Boruvka rounds it must fund.@."

(* ------------------------------------------------------------------ *)
(* E16: telemetry — measured space vs closed-form bounds via the ledger *)
(* ------------------------------------------------------------------ *)

let e16 () =
  header "E16" "Telemetry: measured space vs theorem bounds (space-ledger constants)";
  let module Obs = Ds_obs in
  Obs.Export.enable ();
  Obs.Export.reset ();
  let ledger_entry phase =
    List.find_opt (fun e -> e.Obs.Ledger.phase = phase) (Obs.Ledger.entries ())
  in
  Fmt.pr "two-pass spanner: pass-1 sketch words vs k n^(1+1/k) log n (Theorem 1)@.";
  Fmt.pr "%-6s %-3s %-12s %-12s %-12s %-9s %-5s@." "n" "k" "pass1(w)" "ckpt(B)" "bound(w)" "c"
    "ok";
  line ();
  List.iter
    (fun (n, k) ->
      Obs.Export.reset ();
      let rng = Prng.create (master_seed + n + (1000 * k)) in
      let g = Gen.connected_gnp (Prng.split rng) ~n ~p:(12.0 /. float_of_int n) in
      let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:(Graph.num_edges g) g in
      ignore
        (Two_pass_spanner.run (Prng.split rng) ~n
           ~params:(Two_pass_spanner.default_params ~k)
           stream);
      (match ledger_entry "two_pass.pass1" with
      | Some e ->
          Fmt.pr "%-6d %-3d %-12d %-12d %-12.0f %-9.2f %-5b@." n k e.Obs.Ledger.words
            e.Obs.Ledger.wire_bytes e.Obs.Ledger.bound_words e.Obs.Ledger.constant
            (Obs.Ledger.check e)
      | None -> Fmt.pr "%-6d %-3d (no ledger entry)@." n k);
      Gc.compact ())
    [ (64, 2); (128, 2); (256, 2); (64, 3); (128, 3); (256, 3); (384, 3); (128, 4); (256, 4) ];
  Fmt.pr "expected: at fixed k the constant c stays flat as n doubles (measured state tracks@.";
  Fmt.pr "the n^(1+1/k) curve); polylog slack keeps c well under the ledger tolerance.@.";
  Fmt.pr "@.additive spanner: total sketch words vs n d log n (Theorem 3)@.";
  Fmt.pr "%-6s %-3s %-12s %-12s %-12s %-9s %-5s@." "n" "d" "words" "agm-wire(B)" "bound(w)" "c"
    "ok";
  line ();
  List.iter
    (fun (n, d) ->
      Obs.Export.reset ();
      let rng = Prng.create (master_seed + n + d) in
      let g = Gen.connected_gnp (Prng.split rng) ~n ~p:(10.0 /. float_of_int n) in
      let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:(Graph.num_edges g) g in
      ignore
        (Additive_spanner.run (Prng.split rng) ~n
           ~params:(Additive_spanner.default_params ~n ~d)
           stream);
      (match ledger_entry "additive.total" with
      | Some e ->
          Fmt.pr "%-6d %-3d %-12d %-12d %-12.0f %-9.2f %-5b@." n d e.Obs.Ledger.words
            e.Obs.Ledger.wire_bytes e.Obs.Ledger.bound_words e.Obs.Ledger.constant
            (Obs.Ledger.check e)
      | None -> Fmt.pr "%-6d %-3d (no ledger entry)@." n d);
      Gc.compact ())
    [ (128, 2); (128, 4); (128, 8); (256, 4) ];
  Obs.Export.disable ();
  Obs.Export.reset ()

(* ------------------------------------------------------------------ *)
(* E17: causal tracing — critical-path breakdown and counter cross-check *)
(* ------------------------------------------------------------------ *)

let e17 () =
  header "E17"
    "Causal tracing: critical-path breakdown (pass1/pass2/ship/decode) vs k and shard count";
  let module Obs = Ds_obs in
  let module T = Obs.Trace_tree in
  Obs.Export.enable ();
  (* Run a workload with a clean registry + ring; hand back the span
     forest, its main root, the metrics snapshot of the same run and the
     workload's result, so trace-derived numbers can be checked against
     the run's report and the codec counters. *)
  let traced f =
    Obs.Export.reset ();
    let result = f () in
    let forest = T.of_spans (Obs.Trace.spans ()) in
    let root = Option.get (T.main_root forest) in
    (forest, root, Obs.Metrics.snapshot (), result)
  in
  (* Critical-path nanoseconds attributed to each span name. *)
  let phase_table root =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun { T.p_node; p_ns } ->
        let name = p_node.T.span.Obs.Trace.name in
        Hashtbl.replace tbl name
          (Int64.add p_ns (Option.value ~default:0L (Hashtbl.find_opt tbl name))))
      (T.critical_path root);
    tbl
  in
  let pct root tbl name =
    let ns = Option.value ~default:0L (Hashtbl.find_opt tbl name) in
    100.0 *. Int64.to_float ns /. Int64.to_float (max 1L root.T.span.Obs.Trace.dur_ns)
  in
  let span_count forest name =
    let c = ref 0 in
    T.iter_forest (fun n -> if n.T.span.Obs.Trace.name = name then incr c) forest;
    !c
  in
  Fmt.pr "two-pass spanner: where the wall clock goes as k grows (n fixed)@.";
  Fmt.pr "%-6s %-3s %-10s %-8s %-8s %-10s %-8s %-9s %-8s %-9s@." "n" "k" "root(ms)" "derive%"
    "pass1%" "cluster%" "pass2%" "extract%" "other%" "path=root";
  line ();
  List.iter
    (fun (n, k) ->
      let forest, root, _snap, () =
        traced (fun () ->
            let rng = Prng.create (master_seed + n + (1000 * k)) in
            let g = Gen.connected_gnp (Prng.split rng) ~n ~p:(12.0 /. float_of_int n) in
            let stream =
              Stream_gen.with_churn (Prng.split rng) ~decoys:(Graph.num_edges g) g
            in
            ignore
              (Two_pass_spanner.run (Prng.split rng) ~n
                 ~params:(Two_pass_spanner.default_params ~k)
                 stream))
      in
      ignore (span_count forest "spanner.run");
      let tbl = phase_table root in
      let path_eq_root =
        T.path_total (T.critical_path root) = root.T.span.Obs.Trace.dur_ns
      in
      Fmt.pr "%-6d %-3d %-10.2f %-8.1f %-8.1f %-10.1f %-8.1f %-9.1f %-8.1f %-9b@." n k
        (Int64.to_float root.T.span.Obs.Trace.dur_ns /. 1e6)
        (pct root tbl "spanner.derive")
        (pct root tbl "spanner.pass1")
        (pct root tbl "spanner.clustering")
        (pct root tbl "spanner.pass2")
        (pct root tbl "spanner.extract")
        (pct root tbl "spanner.run") path_eq_root;
      Gc.compact ())
    [ (256, 2); (256, 3); (256, 4) ];
  Fmt.pr "expected: table decode (extract) and structure building (derive) dominate; the@.";
  Fmt.pr "ingestion passes' share grows with k (more levels of sketches per update); the@.";
  Fmt.pr "critical path always partitions the root span exactly (path=root).@.";
  Fmt.pr "@.supervised shipping: critical path vs shard count, trace vs report/registry@.";
  Fmt.pr "%-8s %-10s %-9s %-7s %-9s %-18s %-18s %-18s@." "servers" "root(ms)" "sketch%"
    "ship%" "deliver%" "attempts(tr/rep)" "ships(tr/rep)" "decodes(tr/reg)";
  line ();
  List.iter
    (fun servers ->
      let n = 128 in
      let forest, root, snap, r =
        traced (fun () ->
            let rng = Prng.create (master_seed + 17) in
            let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.06 in
            let stream =
              Stream_gen.with_churn (Prng.split rng) ~decoys:(Graph.num_edges g) g
            in
            Ds_sim.Cluster_sim.run_supervised
              ~plan:(Ds_fault.Fault_plan.random ~seed:(master_seed + 5) ~rate:0.1)
              (Prng.split rng) ~n ~servers stream)
      in
      let cross tr v = Printf.sprintf "%d/%d%s" tr v (if tr = v then "=" else "!") in
      let c name = Option.value ~default:0 (List.assoc_opt name snap.Obs.Metrics.counters) in
      let tbl = phase_table root in
      let attempts_tr = span_count forest "fault.attempt" in
      let ships_tr = span_count forest "cluster.ship" in
      let decodes_tr = span_count forest "sketch.decode" in
      Fmt.pr "%-8d %-10.2f %-9.1f %-7.1f %-9.1f %-18s %-18s %-18s@." servers
        (Int64.to_float root.T.span.Obs.Trace.dur_ns /. 1e6)
        (pct root tbl "cluster.sketch") (pct root tbl "cluster.ship")
        (pct root tbl "cluster.deliver" +. pct root tbl "fault.attempt")
        (cross attempts_tr r.Ds_sim.Cluster_sim.sup_attempts)
        (cross ships_tr r.Ds_sim.Cluster_sim.sup_messages)
        (cross decodes_tr (c "sketch.decode.ok"));
      Gc.compact ())
    [ 2; 4; 8 ];
  Fmt.pr "expected: every trace-derived count matches the run's report or the codec's@.";
  Fmt.pr "registry counter (marked '=') — one fault.attempt span per send attempt, one@.";
  Fmt.pr "cluster.ship span per serialized envelope, one sketch.decode span per decoded@.";
  Fmt.pr "envelope; sketch/ship share of the critical path shrinks as servers spread the@.";
  Fmt.pr "sketching work.@.";
  Obs.Export.disable ();
  Obs.Export.reset ()

(* ------------------------------------------------------------------ *)
(* E18: parallel scaling curve of the static-partition ingest           *)
(* ------------------------------------------------------------------ *)

let e18 () =
  header "E18" "Static-partition parallel ingest: scaling curve and efficiency (Sec 1)";
  let module C = Ingest_common in
  let agm_n = 256 and agm_updates = 20_000 in
  let host_cores = Domain.recommended_domain_count () in
  Fmt.pr "workload: AGM end-to-end n=%d (%d updates); host cores=%d@." agm_n agm_updates
    host_cores;
  let kernel_agm = C.kernel_agm_rate ~n:agm_n ~updates:agm_updates in
  Fmt.pr "sequential kernel: %.0f updates/sec (speedup denominator)@." kernel_agm;
  Fmt.pr "%-10s %-14s %-10s %-12s@." "domains" "updates/sec" "speedup" "efficiency";
  line ();
  List.iter
    (fun domains ->
      let r = C.parallel_agm_rate ~n:agm_n ~updates:agm_updates ~domains in
      let speedup = r /. kernel_agm in
      let eff = speedup /. float_of_int (min domains host_cores) in
      Fmt.pr "%-10d %-14.0f %-10.2f %-12.2f@." domains r speedup eff)
    [ 1; 2; 4; 8 ];
  Fmt.pr "expected: on multi-core hosts speedup grows to ~cores and efficiency stays@.";
  Fmt.pr "above ~0.5; past the host's cores the extra domains timeshare, so the curve@.";
  Fmt.pr "flattens.@."

(* ------------------------------------------------------------------ *)
(* E19: the serving layer — admission control, crash-consistent         *)
(* checkpoints, kill -9 recovery under connection faults                *)
(* ------------------------------------------------------------------ *)

let e19 () =
  header "E19"
    "Serving layer: bounded-queue backpressure, torn-generation quarantine, kill -9 recovery";
  let module SS = Ds_sim.Serve_sim in
  let module FP = Ds_fault.Fault_plan in
  let workload =
    Ds_serve.Loadgen.make ~seed:(master_seed + 19) ~tenants:2 ~streams_per_tenant:3
      ~updates:600 ~n:64 ~batch:4 ()
  in
  let frames =
    List.fold_left
      (fun a s -> a + Ds_serve.Loadgen.frame_count s)
      0 workload.Ds_serve.Loadgen.p_specs
  in
  Fmt.pr "workload: 2 tenants x 3 streams, %d ingest frames, Zipf-profiled sizes@." frames;
  Fmt.pr "@.chaos sweep: every row must converge to bit-identical envelopes@.";
  Fmt.pr "%-7s %-7s %-6s %-7s %-8s %-7s %-9s %-8s %-7s %-6s %-9s %-6s@." "rate" "crash"
    "tear" "sends" "faults" "acked" "overload" "crashes" "quar" "gens" "replayed" "match";
  line ();
  let sweep =
    [
      (0.0, 0, false);
      (0.0, 30, false);
      (0.0, 30, true);
      (0.15, 0, false);
      (0.15, 30, false);
      (0.15, 30, true);
      (0.3, 20, true);
    ]
  in
  let reports =
    List.map
      (fun (rate, crash_every, tear) ->
        let plan =
          if rate = 0.0 then FP.none else FP.random ~seed:(master_seed + 190) ~rate
        in
        let r =
          Bench_kit.with_temp_dir "dynospan-e19" (fun dir ->
              SS.run ~crash_every ~tear_on_crash:tear ~queue_bound:4 ~drain_per_tick:2
                ~checkpoint_every:32 ~burst:4 ~plan ~dir workload)
        in
        Fmt.pr "%-7.2f %-7d %-6b %-7d %-8d %-7d %-9d %-8d %-7d %-6d %-9d %-6b@." rate
          crash_every tear r.SS.sv_sends r.SS.sv_conn_faults r.SS.sv_acked r.SS.sv_overloaded
          r.SS.sv_crashes r.SS.sv_quarantined r.SS.sv_generations r.SS.sv_replayed
          r.SS.sv_final_match;
        ((rate, crash_every, tear), r))
      sweep
  in
  let all_match = List.for_all (fun (_, r) -> r.SS.sv_final_match) reports in
  Fmt.pr "@.every row bit-identical to the seeded mirror: %b@." all_match;
  (* Determinism: the whole report is a pure function of (seed, plan,
     knobs) — rerunning the nastiest row must reproduce it field for
     field, which is what makes any CI failure replayable at a laptop. *)
  let rerun (rate, crash_every, tear) =
    let plan = if rate = 0.0 then FP.none else FP.random ~seed:(master_seed + 190) ~rate in
    Bench_kit.with_temp_dir "dynospan-e19" (fun dir ->
        SS.run ~crash_every ~tear_on_crash:tear ~queue_bound:4 ~drain_per_tick:2
          ~checkpoint_every:32 ~burst:4 ~plan ~dir workload)
  in
  let nastiest = (0.3, 20, true) in
  let first = List.assoc nastiest reports in
  let second = rerun nastiest in
  Fmt.pr "deterministic replay of (rate=0.3, crash=20, tear): %b@." (first = second);
  Fmt.pr "@.expected: acked >= frames (replays re-ack); overload > 0 once the bounded@.";
  Fmt.pr "queue fills; every torn generation is quarantined without being decoded; and@.";
  Fmt.pr "match=true everywhere -- the replayed suffix is the same linear function of@.";
  Fmt.pr "the stream as the lost volatile state, so recovery is exact, not approximate.@."

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* E20: KLMMS single-pass sparsifier vs two-pass vs offline exact      *)
(* ------------------------------------------------------------------ *)

let e20 () =
  header "E20"
    "KLMMS single pass (arXiv 1407.1289): eps vs space vs measured approximation factor";
  let n = 64 in
  let rng = Prng.create (master_seed + 20) in
  let g = Gen.connected_gnp (Prng.split rng) ~n ~p:0.25 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:500 g in
  let wg = Weighted_graph.of_graph g in
  Fmt.pr "graph: n=%d |E|=%d (churn: 500 decoy edges inserted and deleted)@." n
    (Graph.num_edges g);
  Fmt.pr "%-26s %-6s %-7s %-11s %-11s %-10s %-12s@." "algorithm" "eps" "|H|" "lambda_min"
    "lambda_max" "space(w)" "space-bnd(w)";
  line ();
  let module S1 = Ds_sparsify.Sparsify1p in
  List.iter
    (fun eps ->
      let r1 = S1.run (Prng.split rng) ~n ~params:(S1.default_params ~n ~eps) ~eps stream in
      let b1 = pencil g r1.S1.sparsifier in
      Fmt.pr "%-26s %-6.2f %-7d %-11.3f %-11.3f %-10d %-12.0f@." "single-pass (KLMMS)" eps
        (Weighted_graph.num_edges r1.S1.sparsifier)
        b1.Ds_linalg.Spectral.lambda_min b1.Ds_linalg.Spectral.lambda_max r1.S1.space_words
        (S1.space_bound ~n ~eps);
      Gc.compact ();
      let r2 = Sparsify.run (Prng.split rng) ~n ~params:(Sparsify.default_params ~k:2 ~eps ~n) stream in
      let b2 = pencil g r2.Sparsify.sparsifier in
      Fmt.pr "%-26s %-6.2f %-7d %-11.3f %-11.3f %-10d %-12.0f@." "two-pass (Cor 2)" eps
        (Weighted_graph.num_edges r2.Sparsify.sparsifier)
        b2.Ds_linalg.Spectral.lambda_min b2.Ds_linalg.Spectral.lambda_max
        r2.Sparsify.space_words
        (Sparsify.space_bound ~n ~eps);
      Gc.compact ();
      let h = Ss_sparsifier.run (Prng.split rng) ~eps wg in
      let b3 = Ds_linalg.Spectral.pencil_bounds ~base:wg ~candidate:h in
      Fmt.pr "%-26s %-6.2f %-7d %-11.3f %-11.3f %-10s %-12s@." "offline SS08 (exact R)" eps
        (Weighted_graph.num_edges h) b3.Ds_linalg.Spectral.lambda_min
        b3.Ds_linalg.Spectral.lambda_max "-" "-";
      Gc.compact ())
    [ 0.5; 0.4; 0.3; 0.25 ];
  Fmt.pr "expected: the single pass holds its exact pencil bounds inside [1-eps, 1+eps]@.";
  Fmt.pr "at every eps (the two-pass table shows measured quality vs its Z budget, the@.";
  Fmt.pr "offline SS08 row is the no-streaming reference); single-pass space grows like@.";
  Fmt.pr "1/eps^2 -- at laptop scale its final chain step saturates, so |H| approaches@.";
  Fmt.pr "|E| while the sketch, not the output, carries the space story.@."

(* ------------------------------------------------------------------ *)
(* E21: live observability — scraping a serving process under load     *)
(* ------------------------------------------------------------------ *)

let e21 () =
  header "E21"
    "Live observability: STAT rollup scraped from a loaded server, then the crash flight dump";
  let module Server = Ds_serve.Server in
  let module Client = Ds_serve.Client in
  let module Loadgen = Ds_serve.Loadgen in
  let module Json = Ds_util.Json in
  Bench_kit.with_temp_dir "dynospan-e21" @@ fun dir ->
  let socket_path = Filename.concat dir "sock" in
  let server_pid =
    match Unix.fork () with
    | 0 ->
        Ds_obs.Export.enable ();
        let config =
          {
            (Server.default_config ~dir) with
            Server.checkpoint_every = 32;
            drain_per_tick = 16;
            flight = true;
          }
        in
        (try Server.run_unix (Server.create config) ~socket_path ~tick:0.002 ()
         with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  let rec wait_listening tries =
    if tries = 0 then failwith "e21: server did not come up";
    if not (Sys.file_exists socket_path) then begin
      Unix.sleepf 0.02;
      wait_listening (tries - 1)
    end
  in
  wait_listening 250;
  let plan =
    Loadgen.make ~seed:(master_seed + 21) ~tenants:3 ~streams_per_tenant:3 ~updates:3_000
      ~n:64 ~batch:4 ()
  in
  let load_pid =
    match Unix.fork () with
    | 0 ->
        (* Leave only through _exit: unwinding would remove the store. *)
        Unix._exit
          (try
             let client = Client.connect ~socket_path ~delay_unit:0.05 () in
             let o = Loadgen.run client plan ~ledger:None in
             Client.close client;
             if o.Loadgen.o_failed_frames > 0 then 1 else 0
           with _ -> 1)
    | pid -> pid
  in
  (* The scrape plane is the point: poll the STAT rollup over SRV1 while
     the loadgen child hammers the same select loop, and show the stats
     moving.  Every number below went through the bounded quantile
     sketch and the capped per-tenant table — fixed memory, live. *)
  let stat_client = Client.connect ~socket_path ~delay_unit:0.05 () in
  let jnum path doc =
    match Option.bind (Json.path path doc) Json.to_float with Some v -> v | None -> 0.0
  in
  Fmt.pr "@.polling the STAT rollup while the load runs:@.";
  Fmt.pr "%-8s %-7s %-9s %-9s %-12s %-12s@." "t(s)" "queue" "applied" "words" "p50(ms)"
    "p99(ms)";
  line ();
  let t0 = Ds_obs.Clock.now_ns () in
  let done_ = ref false in
  let rows = ref 0 in
  while not !done_ do
    (match Unix.waitpid [ Unix.WNOHANG ] load_pid with
    | 0, _ -> ()
    | _ -> done_ := true);
    (match Client.stat stat_client with
    | Ok s -> (
        match Json.parse s with
        | Ok doc ->
            incr rows;
            Fmt.pr "%-8.2f %-7.0f %-9.0f %-9.0f %-12.2f %-12.2f@."
              (Bench_kit.seconds_since t0)
              (jnum [ "queue"; "depth" ] doc)
              (jnum [ "totals"; "applied_frames" ] doc)
              (jnum [ "totals"; "words" ] doc)
              (jnum [ "ingest"; "p50" ] doc /. 1e6)
              (jnum [ "ingest"; "p99" ] doc /. 1e6)
        | Error m -> Fmt.pr "(unparseable rollup: %s)@." m)
    | Error m -> Fmt.pr "(stat failed: %s)@." m);
    if not !done_ then Unix.sleepf 0.25
  done;
  (match Client.stat stat_client with
  | Ok s -> (
      match Json.parse s with
      | Ok doc ->
          Fmt.pr "@.final per-tenant space vs quota (from the same rollup):@.";
          (match Option.bind (Json.member "tenants" doc) Json.to_obj with
          | Some tenants ->
              List.iter
                (fun (name, tj) ->
                  Fmt.pr "  %-12s %7.0f / %.0f words, p99 %.2f ms@." name
                    (jnum [ "words" ] tj) (jnum [ "quota_words" ] tj)
                    (jnum [ "ingest"; "p99" ] tj /. 1e6))
                tenants
          | None -> ())
      | Error _ -> ())
  | Error _ -> ());
  Client.close stat_client;
  (* Now the part the operator sees after an incident: kill -9 the
     server and read what the flight recorder persisted. *)
  Unix.kill server_pid Sys.sigkill;
  ignore (Unix.waitpid [] server_pid);
  (match Ds_serve.Flight.read ~dir with
  | Ok doc ->
      let spans =
        match Option.bind (Json.member "spans" doc) Json.to_list with
        | Some l -> List.length l
        | None -> 0
      in
      Fmt.pr "@.flight dump after kill -9: seq=%.0f reason=%s spans=%d@."
        (jnum [ "seq" ] doc)
        (match Option.bind (Json.member "reason" doc) Json.to_str with
        | Some r -> r
        | None -> "?")
        spans
  | Error m -> Fmt.pr "@.flight dump after kill -9: UNREADABLE (%s)@." m);
  Fmt.pr "@.expected: the rollup stays parseable and monotone (applied frames and words@.";
  Fmt.pr "grow) while the same event loop serves the load; scrapes cost one bounded@.";
  Fmt.pr "JSON render each, no per-tenant allocation growth; and the post-kill flight@.";
  Fmt.pr "dump is a complete JSON document holding the last applied spans -- the crash@.";
  Fmt.pr "story survives the process.@.";
  Fmt.pr "scraped %d rollup(s) mid-load@." !rows

let experiments =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e8", e8);
    ("e9", e9);
    ("e10", e10);
    ("e11", e11);
    ("e13", e13);
    ("e15", e15);
    ("e16", e16);
    ("e17", e17);
    ("e18", e18);
    ("e19", e19);
    ("e20", e20);
    ("e21", e21);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> List.map String.lowercase_ascii names
    | _ -> List.map fst experiments
  in
  (match List.filter (fun name -> not (List.mem_assoc name experiments)) requested with
  | [] -> ()
  | unknown ->
      Fmt.epr "unknown experiment(s) %s (known: %s)@."
        (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
        (String.concat ", " (List.map fst experiments));
      exit 2);
  Fmt.pr "Spanners and Sparsifiers in Dynamic Streams (Kapralov-Woodruff, PODC 2014)@.";
  Fmt.pr "experiment harness -- see DESIGN.md section 2 for the index@.";
  List.iter
    (fun name ->
      (List.assoc name experiments) ();
      Gc.compact ())
    requested
