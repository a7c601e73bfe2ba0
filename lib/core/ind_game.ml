open Ds_util
open Ds_graph
open Ds_stream

type outcome = {
  trials : int;
  correct : int;
  mean_space_words : float;
  mean_distortion : float;
}

let success_rate o = float_of_int o.correct /. float_of_int o.trials

(* Blocks per instance = [block_factor * n / d]: the paper's factor is 18,
   scaled down to keep laptop-size instances meaningful. *)
let block_factor = 3.0

let play rng ~n ~d ~algo_budget ~trials =
  if d < 2 then invalid_arg "Ind_game.play: d must be >= 2";
  let s = max 2 (int_of_float (ceil (block_factor *. float_of_int n /. float_of_int d))) in
  let total = s * d in
  let correct = ref 0 and space_acc = ref 0.0 and distortion_acc = ref 0.0 in
  for _ = 1 to trials do
    let trng = Prng.split rng in
    (* Alice's input: s independent G(d, 1/2) blocks. *)
    let g = Graph.create total in
    for block = 0 to s - 1 do
      let base = block * d in
      Edge_index.iter_pairs ~n:d (fun a b ->
          if Prng.bool trng then Graph.add_edge g (base + a) (base + b))
    done;
    let alice_stream = Stream_gen.insert_only (Prng.split trng) g in
    (* Bob's choices. *)
    let j = Prng.int trng s in
    let pick_pair () =
      let a = Prng.int trng d in
      let rec other () =
        let b = Prng.int trng d in
        if b = a then other () else b
      in
      (a, other ())
    in
    let pairs = Array.init s (fun _ -> pick_pair ()) in
    let u_j, v_j = pairs.(j) in
    let truth = Graph.mem_edge g ((j * d) + u_j) ((j * d) + v_j) in
    let bob_edges = ref [] in
    for l = 0 to s - 2 do
      let _, v_l = pairs.(l) and u_next, _ = pairs.(l + 1) in
      let a = (l * d) + v_l and b = ((l + 1) * d) + u_next in
      if not (Graph.mem_edge g a b) then begin
        Graph.add_edge g a b;
        bob_edges := Update.insert a b :: !bob_edges
      end
    done;
    let stream = Array.append alice_stream (Array.of_list (List.rev !bob_edges)) in
    (* The space-bounded streaming algorithm (a single pass, so handing the
       state from Alice to Bob is just continuing the same run). *)
    let params = Additive_spanner.default_params ~n:total ~d:algo_budget in
    let r = Additive_spanner.run (Prng.split trng) ~n:total ~params stream in
    let answer = Graph.mem_edge r.Additive_spanner.spanner ((j * d) + u_j) ((j * d) + v_j) in
    if answer = truth then incr correct;
    space_acc := !space_acc +. float_of_int r.Additive_spanner.space_words;
    let dist = Stretch.additive ~pairs:(`Sample (Prng.split trng, 30)) ~base:g
        ~spanner:r.Additive_spanner.spanner ()
    in
    if dist.Stretch.max <> infinity then distortion_acc := !distortion_acc +. dist.Stretch.max
  done;
  {
    trials;
    correct = !correct;
    mean_space_words = !space_acc /. float_of_int trials;
    mean_distortion = !distortion_acc /. float_of_int trials;
  }
