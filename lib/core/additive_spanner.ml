open Ds_util
open Ds_sketch
open Ds_graph
open Ds_stream
open Ds_agm

type params = {
  d : int;
  degree_factor : float;
  center_rate_factor : float;
  sampler : L0_sampler.params;
  f0 : F0.params;
  agm : Agm_sketch.params;
  hash_degree : int;
}

let default_params ~n ~d =
  {
    d;
    degree_factor = 1.0;
    center_rate_factor = 1.5;
    sampler = L0_sampler.default_params;
    f0 = { F0.default_params with reps = 3 };
    agm = Agm_sketch.default_params ~n;
    hash_degree = 6;
  }

type diagnostics = {
  centers : int;
  low_degree : int;
  high_degree : int;
  degree_misclassified : int;
  orphan_high : int;
}

type result = { spanner : Graph.t; space_words : int; diagnostics : diagnostics }

let distortion_bound ~n ~d =
  2.0 +. (8.0 *. (float_of_int n /. float_of_int d))

let space_bound ~n ~d =
  let nf = float_of_int n in
  nf *. float_of_int d *. log (max 2.0 nf) /. log 2.0

let run rng ~n ~params:prm stream =
  if prm.d < 1 then invalid_arg "Additive_spanner.run: d must be >= 1";
  let rng = Prng.split_named rng "additive_spanner" in
  let log2n = F0.levels_for n in
  let threshold =
    max 2 (int_of_float (ceil (prm.degree_factor *. float_of_int (prm.d * log2n))))
  in
  (* Center set C at rate ~ factor/d. *)
  let center_rate = min 1.0 (prm.center_rate_factor /. float_of_int prm.d) in
  let crng = Prng.split_named rng "centers" in
  let is_center = Array.init n (fun _ -> Prng.bernoulli crng center_rate) in
  (* Per-vertex sketches. *)
  let deg_params =
    { Sparse_recovery.sparsity = 2 * threshold; rows = 3; hash_degree = prm.hash_degree }
  in
  let deg_proto = Sparse_recovery.create (Prng.split_named rng "nbr") ~dim:n ~params:deg_params in
  let nbr_sketch = Array.init n (fun _ -> Sparse_recovery.clone_zero deg_proto) in
  let f0_rng = Prng.split_named rng "f0" in
  let deg_est = Array.init n (fun _ -> F0.create (Prng.copy f0_rng) ~dim:n ~params:prm.f0) in
  let samp_rng = Prng.split_named rng "samp" in
  let center_sampler =
    Array.init n (fun _ -> L0_sampler.create (Prng.copy samp_rng) ~dim:n ~params:prm.sampler)
  in
  let agm = Agm_sketch.create (Prng.split_named rng "agm") ~n ~params:prm.agm in
  (* ---- The single pass. ---- *)
  (Ds_obs.Trace.with_span "additive.pass" @@ fun () ->
   Array.iter
     (fun (u : Update.t) ->
       let delta = Update.delta u in
       let touch a b =
         Sparse_recovery.update nbr_sketch.(a) ~index:b ~delta;
         F0.update deg_est.(a) ~index:b ~delta;
         if is_center.(b) then L0_sampler.update center_sampler.(a) ~index:b ~delta
       in
       touch u.Update.u u.Update.v;
       touch u.Update.v u.Update.u;
       Agm_sketch.update agm ~u:u.Update.u ~v:u.Update.v ~delta)
     stream);
  (* ---- Post-processing. ---- *)
  let spanner = Graph.create n in
  let add a b = if a <> b && not (Graph.mem_edge spanner a b) then Graph.add_edge spanner a b in
  let e_low = Graph.create n in
  let parent = Array.make n (-1) in
  let low = ref 0 and high = ref 0 and misclassified = ref 0 and orphan = ref 0 in
  for u = 0 to n - 1 do
    if F0.estimate deg_est.(u) <= threshold then begin
      incr low;
      match Sparse_recovery.decode nbr_sketch.(u) with
      | Found assoc ->
          List.iter (fun (v, m) -> if m > 0 && not (Graph.mem_edge e_low u v) then Graph.add_edge e_low u v) assoc
      | Empty -> ()
      | Declined -> incr misclassified
    end
    else begin
      incr high;
      match L0_sampler.decode center_sampler.(u) with
      | Found (w, _) when w <> u -> parent.(u) <- w
      | Found _ | Empty | Declined -> incr orphan
    end
  done;
  (* E_low into the spanner, and out of the connectivity sketches. *)
  Graph.iter_edges e_low (fun a b -> add a b);
  Agm_sketch.subtract_graph agm e_low;
  (* Star forest F: high-degree vertices hang off their center. Centers that
     are themselves high-degree may also hang off another center; that still
     satisfies the star-cluster argument since we contract by labels below. *)
  for u = 0 to n - 1 do
    if parent.(u) >= 0 then add u parent.(u)
  done;
  (* Supernode labels: the star of each center collapses. A vertex with no
     parent and no center role is its own supernode. *)
  let labels = Array.init n (fun v -> if parent.(v) >= 0 then parent.(v) else v) in
  let forest = Agm_sketch.spanning_forest ~labels agm in
  List.iter (fun (a, b) -> add a b) forest;
  let num_centers = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 is_center in
  let space =
    Array.fold_left (fun acc s -> acc + Sparse_recovery.space_in_words s) 0 nbr_sketch
    + Array.fold_left (fun acc s -> acc + F0.space_in_words s) 0 deg_est
    + Array.fold_left (fun acc s -> acc + L0_sampler.space_in_words s) 0 center_sampler
    + Agm_sketch.space_in_words agm
  in
  if Ds_obs.Metrics.enabled () then begin
    (* Wire bytes: the AGM sketch is the dominant shippable state; the
       per-vertex recovery sketches live coordinator-side only. *)
    Ds_obs.Ledger.record ~phase:"additive.total" ~words:space
      ~wire_bytes:(String.length (Agm_sketch.serialize agm))
      (space_bound ~n ~d:prm.d)
  end;
  {
    spanner;
    space_words = space;
    diagnostics =
      {
        centers = num_centers;
        low_degree = !low;
        high_degree = !high;
        degree_misclassified = !misclassified;
        orphan_high = !orphan;
      };
  }
