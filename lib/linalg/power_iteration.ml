open Ds_util
open Ds_graph

let rayleigh apply x =
  let ax = apply x in
  Vec.dot x ax /. Vec.dot x x

let iterate ~n ~iters ~seed apply =
  let rng = Prng.create seed in
  let x = Vec.random_unit rng n in
  Vec.project_off_ones x;
  let x = ref x in
  for _ = 1 to iters do
    let y = apply !x in
    Vec.project_off_ones y;
    let norm = Vec.norm y in
    if norm > 1e-300 then x := Vec.scale (1.0 /. norm) y
  done;
  rayleigh apply !x

let lambda_max g ?(iters = 200) ?(seed = 1) () =
  iterate ~n:(Weighted_graph.n g) ~iters ~seed (Laplacian.apply g)

let lambda_max_pencil ~base ~candidate ?(iters = 100) ?(seed = 1) () =
  let n = Weighted_graph.n base in
  if Weighted_graph.n candidate <> n then
    invalid_arg "Power_iteration.lambda_max_pencil: size mismatch";
  (* One application of L_base^+ L_candidate = a CG solve per iteration. *)
  let apply_candidate = Laplacian.apply candidate and base_op = Laplacian.operator base in
  let apply x = (Cg.solve base_op ~b:(apply_candidate x) ~tol:1e-10 ()).Cg.x in
  iterate ~n ~iters ~seed apply
