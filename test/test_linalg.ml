open Ds_util
open Ds_graph
open Ds_linalg

let check_bool = Alcotest.(check bool)
let check_float msg ?(tol = 1e-6) a b = Alcotest.(check (float tol)) msg a b

(* -------------------- Vec / Matrix -------------------- *)

let test_vec () =
  check_float "dot" 11.0 (Vec.dot [| 1.0; 2.0 |] [| 3.0; 4.0 |]);
  check_float "norm" 5.0 (Vec.norm [| 3.0; 4.0 |]);
  let y = [| 1.0; 1.0 |] in
  Vec.axpy 2.0 [| 1.0; 2.0 |] y;
  check_float "axpy" 3.0 y.(0);
  check_float "axpy" 5.0 y.(1);
  let v = [| 1.0; 2.0; 3.0 |] in
  Vec.project_off_ones v;
  check_float "projected mean" 0.0 (Array.fold_left ( +. ) 0.0 v);
  check_float "unit norm" 1.0 (Vec.norm (Vec.random_unit (Prng.create 1) 10))

let test_matrix_mul () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let c = Matrix.mul a b in
  check_float "c00" 2.0 (Matrix.get c 0 0);
  check_float "c01" 1.0 (Matrix.get c 0 1);
  check_float "c10" 4.0 (Matrix.get c 1 0);
  check_float "c11" 3.0 (Matrix.get c 1 1);
  let v = Matrix.mul_vec a [| 1.0; 1.0 |] in
  check_float "mul_vec" 3.0 v.(0);
  check_float "mul_vec" 7.0 v.(1)

let test_matrix_transpose_identity () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let at = Matrix.transpose a in
  check_float "transpose" 3.0 (Matrix.get at 0 1);
  let i = Matrix.identity 2 in
  check_bool "a * I = a" true (Matrix.frobenius (Matrix.sub (Matrix.mul a i) a) < 1e-12)

(* -------------------- Laplacian -------------------- *)

let test_laplacian_dense () =
  let g = Weighted_graph.of_edges 3 [ (0, 1, 2.0); (1, 2, 3.0) ] in
  let l = Laplacian.dense g in
  check_float "diag" 2.0 (Matrix.get l 0 0);
  check_float "diag mid" 5.0 (Matrix.get l 1 1);
  check_float "off" (-2.0) (Matrix.get l 0 1);
  check_float "zero" 0.0 (Matrix.get l 0 2);
  check_bool "symmetric" true (Matrix.is_symmetric l)

(* Connected, disconnected-with-an-isolated-vertex and edgeless graphs: the
   solver tests below run on the same three. *)
let solver_graphs () =
  [
    ("connected", Weighted_graph.of_graph (Gen.connected_gnp (Prng.create 2) ~n:20 ~p:0.2));
    ( "disconnected",
      Weighted_graph.of_edges 7 [ (0, 1, 2.5); (1, 2, 0.5); (2, 0, 1.0); (3, 4, 4.0); (4, 5, 0.25) ]
    );
    ("edgeless", Weighted_graph.create 5);
  ]

let test_laplacian_apply_matches_dense () =
  let rng = Prng.create 3 in
  List.iter
    (fun (name, g) ->
      let n = Weighted_graph.n g in
      let l = Laplacian.dense g and op = Laplacian.operator g in
      for _ = 1 to 10 do
        let x = Vec.random_unit rng n in
        let b = Matrix.mul_vec l x in
        check_bool (name ^ ": apply matches dense") true
          (Vec.norm (Vec.sub (Laplacian.apply g x) b) < 1e-9);
        (* apply_into overwrites whatever its output held. *)
        let y = Array.make n 7.0 in
        Laplacian.apply_into op x y;
        check_bool (name ^ ": apply_into matches dense") true (Vec.norm (Vec.sub y b) < 1e-9)
      done)
    (solver_graphs ())

let test_quadratic_form () =
  let g = Weighted_graph.of_edges 3 [ (0, 1, 2.0); (1, 2, 3.0) ] in
  (* x = (1,0,0): only edge (0,1) cut: 2 * 1 = 2 *)
  check_float "qf" 2.0 (Laplacian.quadratic_form g [| 1.0; 0.0; 0.0 |]);
  check_float "cut weight" 2.0 (Laplacian.cut_weight g [ 0 ]);
  check_float "cut both" 3.0 (Laplacian.cut_weight g [ 0; 1 ])

(* -------------------- CG -------------------- *)

let test_cg_solves () =
  let g = Weighted_graph.of_graph (Gen.connected_gnp (Prng.create 4) ~n:30 ~p:0.15) in
  let b = Array.make 30 0.0 in
  b.(3) <- 1.0;
  b.(17) <- -1.0;
  let { Cg.x; residual; _ } = Cg.solve (Laplacian.operator g) ~b () in
  check_bool "small residual" true (residual < 1e-6);
  let lx = Laplacian.apply g x in
  check_bool "Lx = b" true (Vec.norm (Vec.sub lx b) < 1e-6)

let test_cg_solve_shifted_residual () =
  (* (L + shift I) is positive definite on every graph, so the solve must
     leave a small residual against the dense matrix whether the graph is
     connected, split into components or has no edges at all. *)
  let rng = Prng.create 6 in
  List.iter
    (fun (name, g) ->
      let n = Weighted_graph.n g in
      let l = Laplacian.dense g and op = Laplacian.operator g in
      List.iter
        (fun shift ->
          let k = Matrix.add l (Matrix.scale shift (Matrix.identity n)) in
          let b = Array.init n (fun _ -> Prng.gaussian rng) in
          let { Cg.x; residual; _ } = Cg.solve_shifted op ~shift ~b () in
          let what = Printf.sprintf "%s, shift %g" name shift in
          check_bool (what ^ ": reported residual") true (residual < 1e-8);
          check_bool (what ^ ": dense residual") true
            (Vec.norm (Vec.sub (Matrix.mul_vec k x) b) /. Vec.norm b < 1e-8))
        [ 1e-3; 0.5; 16.0 ])
    (solver_graphs ())

(* -------------------- Jacobi -------------------- *)

let test_jacobi_known () =
  (* [[2,1],[1,2]] has eigenvalues 1 and 3. *)
  let m = Matrix.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let ev = Jacobi.eigenvalues m in
  check_float "lambda1" 1.0 ev.(0);
  check_float "lambda2" 3.0 ev.(1)

let test_jacobi_reconstructs () =
  let rng = Prng.create 5 in
  let n = 12 in
  let m = Matrix.create n in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let v = Prng.gaussian rng in
      Matrix.set m i j v;
      Matrix.set m j i v
    done
  done;
  let { Jacobi.values; vectors } = Jacobi.decompose m in
  (* Q diag(values) Q^T = m *)
  let d = Matrix.create n in
  Array.iteri (fun i v -> Matrix.set d i i v) values;
  let recon = Matrix.mul vectors (Matrix.mul d (Matrix.transpose vectors)) in
  check_bool "reconstruction" true (Matrix.frobenius (Matrix.sub recon m) < 1e-7);
  (* Orthogonality *)
  let qtq = Matrix.mul (Matrix.transpose vectors) vectors in
  check_bool "orthogonal" true
    (Matrix.frobenius (Matrix.sub qtq (Matrix.identity n)) < 1e-8)

let test_jacobi_laplacian_kernel () =
  let g = Weighted_graph.of_graph (Gen.cycle 8) in
  let ev = Jacobi.eigenvalues (Laplacian.dense g) in
  check_float "connected: single zero eigenvalue" 0.0 ev.(0);
  check_bool "second eigenvalue positive" true (ev.(1) > 1e-9)

(* -------------------- Effective resistance -------------------- *)

let test_resistance_path () =
  (* Series resistors: R(0, k) = k on a unit path. *)
  let g = Weighted_graph.of_graph (Gen.path 6) in
  check_float "adjacent" 1.0 (Resistance.effective g 0 1);
  check_float "end to end" 5.0 (Resistance.effective g 0 5)

let test_resistance_complete () =
  (* K_n: R_uv = 2/n. *)
  let g = Weighted_graph.of_graph (Gen.complete 10) in
  check_float "complete" 0.2 (Resistance.effective g 0 5)

let test_resistance_cycle () =
  (* Cycle: R(u, v) = d (n - d) / n for hop distance d. *)
  let g = Weighted_graph.of_graph (Gen.cycle 10) in
  check_float "cycle d=1" 0.9 (Resistance.effective g 0 1);
  check_float "cycle d=5" 2.5 (Resistance.effective g 0 5)

let test_resistance_parallel () =
  (* Two parallel unit edges = multiedge via weights: conductances add. *)
  let g = Weighted_graph.of_edges 2 [ (0, 1, 2.0) ] in
  check_float "parallel halves" 0.5 (Resistance.effective g 0 1)

let test_resistance_disconnected () =
  let g = Weighted_graph.create 4 in
  Weighted_graph.add_edge g 0 1 1.0;
  check_bool "infinite across components" true (Resistance.effective g 0 3 = infinity)

let test_foster () =
  (* Foster's theorem: sum over edges of w_e R_e = n - #components. *)
  let g = Weighted_graph.of_graph (Gen.connected_gnp (Prng.create 6) ~n:25 ~p:0.2) in
  check_float "foster" ~tol:1e-4 24.0 (Resistance.total g)

(* -------------------- Spectral bounds -------------------- *)

let test_spectral_identical () =
  let g = Weighted_graph.of_graph (Gen.connected_gnp (Prng.create 7) ~n:20 ~p:0.2) in
  let { Spectral.lambda_min; lambda_max; kernel_leak } =
    Spectral.pencil_bounds ~base:g ~candidate:g
  in
  check_float "identical min" ~tol:1e-6 1.0 lambda_min;
  check_float "identical max" ~tol:1e-6 1.0 lambda_max;
  check_float "no kernel leak" ~tol:1e-6 0.0 kernel_leak;
  check_bool "is sparsifier of itself" true (Spectral.is_sparsifier ~base:g ~candidate:g ~eps:0.01)

let test_spectral_scaled () =
  let g = Weighted_graph.of_graph (Gen.cycle 12) in
  let h = Weighted_graph.create 12 in
  Weighted_graph.iter_edges g (fun u v w -> Weighted_graph.add_edge h u v (1.5 *. w));
  let { Spectral.lambda_min; lambda_max; _ } = Spectral.pencil_bounds ~base:g ~candidate:h in
  check_float "scaled min" ~tol:1e-6 1.5 lambda_min;
  check_float "scaled max" ~tol:1e-6 1.5 lambda_max

let test_spectral_subgraph_detected () =
  (* Dropping a cycle edge destroys the approximation (lambda_min drops). *)
  let g = Weighted_graph.of_graph (Gen.cycle 12) in
  let h = Weighted_graph.create 12 in
  Weighted_graph.iter_edges g (fun u v w -> if not (u = 0 && v = 1) then Weighted_graph.add_edge h u v w);
  let { Spectral.lambda_min; lambda_max; _ } = Spectral.pencil_bounds ~base:g ~candidate:h in
  check_bool "min visibly below 1" true (lambda_min < 0.5);
  check_bool "max at most 1" true (lambda_max <= 1.0 +. 1e-6);
  check_bool "not a 0.1-sparsifier" false (Spectral.is_sparsifier ~base:g ~candidate:h ~eps:0.1)

let prop_resistance_bounded_by_distance =
  QCheck.Test.make ~name:"R_uv <= d(u,v) on unit-weight graphs (Rayleigh)" ~count:25
    QCheck.small_nat
    (fun seed ->
      let g0 = Gen.connected_gnp (Prng.create (seed + 50)) ~n:15 ~p:0.2 in
      let g = Weighted_graph.of_graph g0 in
      let ok = ref true in
      for v = 1 to 14 do
        let r = Resistance.effective g 0 v in
        let d = float_of_int (Bfs.distance g0 0 v) in
        if r > d +. 1e-6 then ok := false
      done;
      !ok)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_resistance_bounded_by_distance ]

let () =
  Alcotest.run "linalg"
    [
      ( "dense",
        [
          Alcotest.test_case "vec" `Quick test_vec;
          Alcotest.test_case "matrix mul" `Quick test_matrix_mul;
          Alcotest.test_case "transpose/identity" `Quick test_matrix_transpose_identity;
        ] );
      ( "laplacian",
        [
          Alcotest.test_case "dense" `Quick test_laplacian_dense;
          Alcotest.test_case "operator matches dense" `Quick test_laplacian_apply_matches_dense;
          Alcotest.test_case "quadratic form" `Quick test_quadratic_form;
        ] );
      ( "cg",
        [
          Alcotest.test_case "solves" `Quick test_cg_solves;
          Alcotest.test_case "shifted residual" `Quick test_cg_solve_shifted_residual;
        ] );
      ( "jacobi",
        [
          Alcotest.test_case "known spectrum" `Quick test_jacobi_known;
          Alcotest.test_case "reconstructs" `Quick test_jacobi_reconstructs;
          Alcotest.test_case "laplacian kernel" `Quick test_jacobi_laplacian_kernel;
        ] );
      ( "resistance",
        [
          Alcotest.test_case "path" `Quick test_resistance_path;
          Alcotest.test_case "complete" `Quick test_resistance_complete;
          Alcotest.test_case "cycle" `Quick test_resistance_cycle;
          Alcotest.test_case "parallel" `Quick test_resistance_parallel;
          Alcotest.test_case "disconnected" `Quick test_resistance_disconnected;
          Alcotest.test_case "foster" `Quick test_foster;
        ] );
      ( "spectral",
        [
          Alcotest.test_case "identical" `Quick test_spectral_identical;
          Alcotest.test_case "scaled" `Quick test_spectral_scaled;
          Alcotest.test_case "subgraph detected" `Quick test_spectral_subgraph_detected;
        ] );
      ("properties", qcheck_cases);
    ]
