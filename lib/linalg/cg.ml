type result = { x : float array; iterations : int; residual : float }

(* Textbook CG for [A x = b], [A] symmetric and positive definite on the
   subspace [project] maps onto (the identity for the shifted system). All
   vectors are allocated up front; [apply v q] overwrites [q] with [A v]. *)
let iterate ~n ~apply ~project ~b ~tol =
  let max_iter = 20 * n in
  let x = Array.make n 0.0 in
  let r = Array.copy b in
  let p = Array.copy r in
  let q = Array.make n 0.0 in
  let rs = ref (Vec.dot r r) in
  let bnorm = max (sqrt !rs) 1e-30 in
  let iters = ref 0 in
  while sqrt !rs /. bnorm > tol && !iters < max_iter do
    incr iters;
    apply p q;
    let denom = Vec.dot p q in
    if denom <= 0.0 then
      (* Hit the kernel (disconnected graph or numerical trouble): stop. *)
      rs := 0.0
    else begin
      let alpha = !rs /. denom in
      Vec.axpy alpha p x;
      Vec.axpy (-.alpha) q r;
      (* CG drifts into the kernel over many iterations; re-project. *)
      project r;
      let rs' = Vec.dot r r in
      let beta = rs' /. !rs in
      for i = 0 to n - 1 do
        p.(i) <- r.(i) +. (beta *. p.(i))
      done;
      rs := rs'
    end
  done;
  project x;
  apply x q;
  let residual = Vec.norm (Vec.sub q b) /. bnorm in
  { x; iterations = !iters; residual }

let solve_shifted (op : Laplacian.op) ~shift ~b ?(tol = 1e-9) () =
  let n = op.Laplacian.n in
  if Array.length b <> n then invalid_arg "Cg.solve_shifted: size mismatch";
  if shift <= 0.0 then invalid_arg "Cg.solve_shifted: shift must be positive";
  (* [L + shift I] is positive definite (no kernel, connected or not), so
     there is no ones-projection anywhere. *)
  let apply v q =
    Laplacian.apply_into op v q;
    for i = 0 to n - 1 do
      q.(i) <- q.(i) +. (shift *. v.(i))
    done
  in
  iterate ~n ~apply ~project:ignore ~b ~tol

let solve (op : Laplacian.op) ~b ?(tol = 1e-9) () =
  let n = op.Laplacian.n in
  if Array.length b <> n then invalid_arg "Cg.solve: size mismatch";
  let b = Array.copy b in
  Vec.project_off_ones b;
  iterate ~n ~apply:(Laplacian.apply_into op) ~project:Vec.project_off_ones ~b ~tol
