open Ds_graph

type bounds = { lambda_min : float; lambda_max : float; kernel_leak : float }

let pencil_bounds ~base ~candidate =
  let n = Weighted_graph.n base in
  if Weighted_graph.n candidate <> n then invalid_arg "Spectral.pencil_bounds: size mismatch";
  let lg = Laplacian.dense base in
  let { Jacobi.values; vectors } = Jacobi.decompose lg in
  let vmax = Array.fold_left (fun a x -> max a (abs_float x)) 0.0 values in
  let tol = 1e-9 *. max vmax 1.0 in
  (* S = Q * diag(lambda_i^{-1/2} on the range, 0 on the kernel). *)
  let s = Matrix.create n in
  let rank = ref 0 in
  for j = 0 to n - 1 do
    if values.(j) > tol then begin
      incr rank;
      let c = 1.0 /. sqrt values.(j) in
      for i = 0 to n - 1 do
        Matrix.set s i j (Matrix.get vectors i j *. c)
      done
    end
  done;
  let lh = Laplacian.dense candidate in
  let m = Matrix.mul (Matrix.transpose s) (Matrix.mul lh s) in
  let evals = Jacobi.eigenvalues m in
  (* The first n - rank eigenvalues are structural zeros (kernel columns). *)
  let kernel_dim = n - !rank in
  let lambda_min = if !rank = 0 then 1.0 else evals.(kernel_dim) in
  let lambda_max = if !rank = 0 then 1.0 else evals.(n - 1) in
  (* Energy of L_H inside ker(L_G): x^T L_H x over kernel eigenvectors. *)
  let kernel_leak = ref 0.0 in
  for j = 0 to n - 1 do
    if values.(j) <= tol then begin
      let x = Array.init n (fun i -> Matrix.get vectors i j) in
      kernel_leak := max !kernel_leak (Laplacian.quadratic_form candidate x)
    end
  done;
  { lambda_min; lambda_max; kernel_leak = !kernel_leak }

let is_sparsifier ~base ~candidate ~eps =
  let { lambda_min; lambda_max; kernel_leak } = pencil_bounds ~base ~candidate in
  kernel_leak < 1e-6 && lambda_min >= 1.0 -. eps -. 1e-9 && lambda_max <= 1.0 +. eps +. 1e-9
