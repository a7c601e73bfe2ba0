open Ds_util
open Ds_graph
open Ds_linalg

type params = {
  bank : Level_bank.params;
  jl_reps : int;
  oversample : float;
  chain_eps : float;
  gamma0_scale : float;
  gamma_floor_scale : float;
}

exception Invalid_eps of float

let validate_eps eps =
  (* Same contract as Sparsify.validate_eps: eps <= 0 gives an unbounded (or
     NaN-poisoned) sampling rate, eps >= 1 a vacuous guarantee. NaN fails
     both comparisons and lands in the raise. *)
  if not (eps > 0.0 && eps < 1.0) then raise (Invalid_eps eps)

let[@inline] log2_ceil n =
  let rec go acc p = if p >= n then acc else go (acc + 1) (p * 2) in
  go 0 1

let[@inline] pow2_ceil x =
  let rec go p = if p >= x then p else go (p * 2) in
  go 1

let default_params ~n ~eps =
  validate_eps eps;
  if n < 2 then invalid_arg "Sparsify1p.default_params: need n >= 2";
  let log2n = max 1 (log2_ceil n) in
  (* Buckets per row scale like n log n / eps^2 — the KLMMS space budget.
     At that width the geometric class an edge is read from is sparse
     relative to [cols], so median-of-rows multiplicity estimates are exact
     whp and the only error left is the sampling error eps was budgeted
     for. *)
  let cols =
    pow2_ceil
      (max 256 (int_of_float (ceil (float_of_int (n * log2n) /. (eps *. eps)))))
  in
  {
    bank =
      {
        Level_bank.banks = 2;
        (* Deepest level ever queried is ~log2 gamma0 = log2 n + O(1); the
           rest of the depth just keeps tail classes thin. *)
        levels = log2n + 4;
        rows = 7;
        cols;
        hash_degree = 6;
      };
    jl_reps = 10;
    oversample = 1.5;
    (* Intermediate chain steps only need a constant-factor sparsifier to
       seed the next step's resistances (KLMMS run the chain at constant
       accuracy and spend eps only on the last step). *)
    chain_eps = 0.5;
    gamma0_scale = 8.0;
    gamma_floor_scale = 0.5;
  }

type t = { n : int; prm : params; bank : Level_bank.t }

let create rng ~n ~params =
  if n < 2 then invalid_arg "Sparsify1p.create: need n >= 2";
  { n; prm = params; bank = Level_bank.create rng ~dim:(Edge_index.dim n) ~params:params.bank }

let n t = t.n
let params t = t.prm
let bank t = t.bank

let of_bank ~n ~params bank =
  if Level_bank.dim bank <> Edge_index.dim n then
    invalid_arg "Sparsify1p.of_bank: bank dimension does not match n";
  { n; prm = params; bank }

let update t ~u ~v ~delta =
  Level_bank.update t.bank ~index:(Edge_index.encode ~n:t.n u v) ~delta

type result = {
  sparsifier : Weighted_graph.t;
  space_words : int;
  chain_steps : int;
  chain_sizes : int array;
}

(* A pair the chain may keep: its multiplicity and its geometric level in
   every bank. *)
type candidate = { u : int; v : int; est : int; levels : int array }

(* The one read of the sketch. The multiplicity is read from every bank at
   the pair's own geometric class there — the deepest, hence sparsest, slot
   that holds it. Taking the min across banks makes a phantom survive only
   if independent sketches err upward at the same pair, squaring the
   (already small) false-positive rate; for a present edge every bank reads
   the exact multiplicity whp, so the min is exact. Pairs whose min is not
   positive can never be sampled, so only the rest are kept, in
   [Edge_index] order. *)
let read_candidates t =
  let banks = (Level_bank.params t.bank).Level_bank.banks in
  let acc = ref [] in
  Edge_index.iter_pairs ~n:t.n (fun u v ->
      let index = Edge_index.encode ~n:t.n u v in
      let levels = Array.init banks (fun b -> Level_bank.sample_level t.bank ~bank:b ~index) in
      let est = ref max_int in
      for b = 0 to banks - 1 do
        est := min !est (Level_bank.query t.bank ~bank:b ~level:levels.(b) ~index)
      done;
      if !est > 0 then acc := { u; v; est = !est; levels } :: !acc);
  Array.of_list (List.rev !acc)

(* The KLMMS chain. K(gamma) = L + gamma I interpolates between the
   well-conditioned gamma0 I (gamma0 >= lambda_max, where resistances are
   the analytic 2/gamma0) and the target L (gamma_floor << eps lambda_2).
   Halving gamma keeps K(gamma/2) <= K(gamma) <= 2 K(gamma/2), so a
   sparsifier of step s-1 gives constant-factor resistance estimates for
   step s; each step samples edge e with probability proportional to its
   estimated leverage and keeps its multiplicity, read once up front at the
   matching geometric level. One sketch state serves every step because the
   sampling sets are nested and banks supply fresh randomness. *)
let decode rng t ~eps =
  validate_eps eps;
  let n = t.n in
  let prm = t.prm in
  let bprm = Level_bank.params t.bank in
  let levels = bprm.Level_bank.levels in
  let banks = bprm.Level_bank.banks in
  let logn = log (float_of_int (max 2 n)) in
  let gamma0 = prm.gamma0_scale *. float_of_int n in
  let gamma_floor =
    prm.gamma_floor_scale *. eps /. (float_of_int n *. float_of_int n)
  in
  let steps =
    max 1 (int_of_float (ceil (log (gamma0 /. gamma_floor) /. log 2.0)))
  in
  let candidates = read_candidates t in
  let h = ref (Weighted_graph.create n) in
  let sizes = Array.make steps 0 in
  for s = 1 to steps do
    let final = s = steps in
    let gamma_prev = gamma0 /. (2.0 ** float_of_int (s - 1)) in
    let eps_s = if final then eps else prm.chain_eps in
    (* The last step decodes at the target accuracy from a bank no
       intermediate step touched; intermediate steps round-robin over the
       rest so successive refinements don't reuse sampling randomness. *)
    let bank_ix =
      if banks = 1 then 0 else if final then banks - 1 else (s - 1) mod (banks - 1)
    in
    let resist =
      if Weighted_graph.num_edges !h = 0 then fun _ _ -> 2.0 /. gamma_prev
      else
        Resistance.jl_estimator (Prng.split rng) !h ~shift:gamma_prev
          ~reps:prm.jl_reps ()
    in
    let rate = prm.oversample *. logn /. (eps_s *. eps_s) in
    let out = Weighted_graph.create n in
    Array.iter
      (fun c ->
        (* A multiplicity-m edge is m parallel unit edges, so its leverage —
           hence its sampling probability — is m times the pair resistance;
           est is exact whp and independent of the inclusion coin below, so
           using it here keeps the sample unbiased while stopping heavy
           edges from being subsampled and weight-amplified. *)
        let p = min 1.0 (rate *. float_of_int c.est *. resist c.u c.v) in
        let lvl =
          if p >= 1.0 then 0
          else if p <= 0.0 then levels - 1
          else min (levels - 1) (int_of_float (floor (-.(log p /. log 2.0))))
        in
        (* Inclusion is decided by bank [bank_ix]'s hash at level [lvl]
           (probability 2^-lvl); the 2^lvl reweighting keeps the
           expectation exact. *)
        if c.levels.(bank_ix) >= lvl then
          Weighted_graph.add_edge out c.u c.v (float_of_int c.est *. float_of_int (1 lsl lvl)))
      candidates;
    sizes.(s - 1) <- Weighted_graph.num_edges out;
    h := out
  done;
  {
    sparsifier = !h;
    space_words = Level_bank.space_in_words t.bank;
    chain_steps = steps;
    chain_sizes = sizes;
  }

let run rng ~n ~params ~eps stream =
  validate_eps eps;
  let t = create (Prng.split_named rng "sketch") ~n ~params in
  Array.iter
    (fun (upd : Ds_stream.Update.t) ->
      update t ~u:upd.Ds_stream.Update.u ~v:upd.Ds_stream.Update.v
        ~delta:(Ds_stream.Update.delta upd))
    stream;
  decode (Prng.split_named rng "decode") t ~eps

let space_bound ~n ~eps =
  let nf = float_of_int n in
  let l = log nf /. log 2.0 in
  nf *. l *. l *. l /. (eps *. eps)
