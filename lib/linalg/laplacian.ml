open Ds_graph

let dense g =
  let n = Weighted_graph.n g in
  let m = Matrix.create n in
  Weighted_graph.iter_edges g (fun u v w ->
      Matrix.add_to m u v (-.w);
      Matrix.add_to m v u (-.w);
      Matrix.add_to m u u w;
      Matrix.add_to m v v w);
  m

type op = { n : int; src : int array; dst : int array; w : float array }

let operator g =
  let m = Weighted_graph.num_edges g in
  let src = Array.make m 0 and dst = Array.make m 0 and w = Array.make m 0.0 in
  let i = ref 0 in
  Weighted_graph.iter_edges g (fun u v wt ->
      src.(!i) <- u;
      dst.(!i) <- v;
      w.(!i) <- wt;
      incr i);
  { n = Weighted_graph.n g; src; dst; w }

let apply_into op x y =
  if Array.length x <> op.n || Array.length y <> op.n then
    invalid_arg "Laplacian.apply_into: size mismatch";
  Array.fill y 0 op.n 0.0;
  for i = 0 to Array.length op.w - 1 do
    let u = op.src.(i) and v = op.dst.(i) in
    let d = x.(u) -. x.(v) in
    y.(u) <- y.(u) +. (op.w.(i) *. d);
    y.(v) <- y.(v) -. (op.w.(i) *. d)
  done

let apply g =
  let op = operator g in
  fun x ->
    let y = Array.make op.n 0.0 in
    apply_into op x y;
    y

let quadratic_form g x =
  let acc = ref 0.0 in
  Weighted_graph.iter_edges g (fun u v w ->
      let d = x.(u) -. x.(v) in
      acc := !acc +. (w *. d *. d));
  !acc

let cut_weight g members =
  let n = Weighted_graph.n g in
  let inside = Array.make n false in
  List.iter (fun i -> inside.(i) <- true) members;
  let acc = ref 0.0 in
  Weighted_graph.iter_edges g (fun u v w -> if inside.(u) <> inside.(v) then acc := !acc +. w);
  !acc
