open Ds_util
open Ds_graph
open Ds_linalg

(* The constant C of p_e = min(1, C w_e R_e log n / eps^2). *)
let oversample = 0.5

let run rng ~eps g =
  let n = Weighted_graph.n g in
  let log_n = log (float_of_int (max 2 n)) in
  let out = Weighted_graph.create n in
  List.iter
    (fun (u, v, w, r) ->
      let p = min 1.0 (oversample *. w *. r *. log_n /. (eps *. eps)) in
      if p > 0.0 && Prng.bernoulli rng p then Weighted_graph.add_edge out u v (w /. p))
    (Resistance.all_edges g);
  out
