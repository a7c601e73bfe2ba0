open Ds_util
open Ds_graph
open Ds_linalg

(* The constant C of p_e = min(1, C w_e R_e log n / eps^2). *)
let oversample = 0.5

let probability ~eps ~log_n (w, r) = min 1.0 (oversample *. w *. r *. log_n /. (eps *. eps))

let run rng ~eps g =
  let n = Weighted_graph.n g in
  let log_n = log (float_of_int (max 2 n)) in
  let out = Weighted_graph.create n in
  List.iter
    (fun (u, v, w, r) ->
      let p = probability ~eps ~log_n (w, r) in
      if p > 0.0 && Prng.bernoulli rng p then Weighted_graph.add_edge out u v (w /. p))
    (Resistance.all_edges g);
  out

let expected_size ~eps g =
  let n = Weighted_graph.n g in
  let log_n = log (float_of_int (max 2 n)) in
  List.fold_left
    (fun acc (_, _, w, r) -> acc +. probability ~eps ~log_n (w, r))
    0.0 (Resistance.all_edges g)
