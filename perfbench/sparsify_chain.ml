(* sparsify1p: the KLMMS single-pass spectral sparsifier.  Sparsify1p.create
   runs in set-up; each job resets the bank, makes the single pass and
   decodes at eps = 0.5.  The same sketch and hash layers as spanner-churn
   are used the other way round: ingest is almost nothing, and nearly all
   time is the decode chain — every step sweeps Level_bank queries over all
   pairs and runs JL-sketched CG resistance solves. *)

open Ds_util
open Ds_graph
open Ds_stream
module S1 = Ds_sparsify.Sparsify1p
module Bank = Ds_sparsify.Level_bank

type size = { n : int; p : float; decoys : int }

let full = { n = 96; p = 0.2; decoys = 2_000 }
let smoke = { n = 32; p = 0.3; decoys = 200 }
let eps = 0.5
let layers = [ "bench.level_bank.reset"; "bench.sparsify1p.update"; "bench.sparsify1p.decode" ]

let digest_weighted g =
  let b = Buffer.create 4096 in
  List.iter
    (fun (u, v, w) -> Printf.bprintf b "%d-%d:%h;" u v w)
    (List.sort compare (Weighted_graph.edges g));
  Wire.fnv1a64 (Buffer.contents b)

let run ~smoke:is_smoke ~seed ~seconds ~trace =
  let sz = if is_smoke then smoke else full in
  let root = Prng.create Harness.instance_seed in
  let setup () =
    let g = Gen.connected_gnp (Prng.split_named root "graph") ~n:sz.n ~p:sz.p in
    let stream = Stream_gen.with_churn (Prng.create seed) ~decoys:sz.decoys g in
    let t =
      S1.create (Prng.split_named root "sketch") ~n:sz.n ~params:(S1.default_params ~n:sz.n ~eps)
    in
    (g, stream, t)
  in
  let (g, stream, t), before = Harness.setups ~warmup:true ~times:4 setup in
  let updates = Array.length stream in
  let decode_rng = Prng.split_named root "decode" in
  (* One job; returns the decode result and the single pass's wall ms. *)
  let job () =
    Ds_obs.Trace.with_span "bench.job" (fun () ->
        Ds_obs.Trace.with_span "bench.level_bank.reset" (fun () -> Bank.reset (S1.bank t));
        let (), ingest_ms =
          Harness.timed_ms (fun () ->
              Ds_obs.Trace.with_span "bench.sparsify1p.update" (fun () ->
                  Array.iter
                    (fun (u : Update.t) ->
                      S1.update t ~u:u.Update.u ~v:u.Update.v ~delta:(Update.delta u))
                    stream))
        in
        let r =
          Ds_obs.Trace.with_span "bench.sparsify1p.decode" (fun () ->
              S1.decode (Prng.copy decode_rng) t ~eps)
        in
        (r, ingest_ms))
  in
  let first, _ = job () in
  let base = Weighted_graph.of_graph g in
  let bounds, pencil_ms =
    Harness.timed_ms (fun () ->
        Ds_linalg.Spectral.pencil_bounds ~base ~candidate:first.S1.sparsifier)
  in
  let pencil_ok =
    bounds.Ds_linalg.Spectral.lambda_min >= 1.0 -. eps
    && bounds.Ds_linalg.Spectral.lambda_max <= 1.0 +. eps
    && bounds.Ds_linalg.Spectral.kernel_leak < 1e-6
  in
  let digest = digest_weighted first.S1.sparsifier in
  let runs =
    Harness.jobs ~trace ~seconds
      ~keep:(fun (r, ingest_ms) -> (digest_weighted r.S1.sparsifier, ingest_ms))
      job
  in
  let peak_rss_mb = Harness.peak_rss_mb None in
  let reproduced, mismatches =
    Harness.reproduce_check "sparsifier" ~same:(fun (d, _) -> d = digest) runs
  in
  let _, after = Harness.setups ~warmup:false ~times:4 setup in
  let layer_metrics () =
    (* Benchmark-timed sweeps of the decode chain's two inner layers:
       one all-pairs multiplicity read (what every chain step does per
       pair and bank) and one JL resistance estimator on the decoded
       sparsifier at the chain's last shift. *)
    let bank = S1.bank t in
    let banks = (Bank.params bank).Bank.banks in
    let sweep () =
      let acc = ref 0 in
      Edge_index.iter_pairs ~n:sz.n (fun u v ->
          let index = Edge_index.encode ~n:sz.n u v in
          for b = 0 to banks - 1 do
            let level = Bank.sample_level bank ~bank:b ~index in
            acc := !acc + Bank.query bank ~bank:b ~level ~index
          done);
      Sys.opaque_identity !acc
    in
    let queries = Edge_index.dim sz.n * banks in
    let query_ns =
      Harness.median
        (List.init 5 (fun _ -> snd (Harness.timed_ms sweep) *. 1e6 /. float_of_int queries))
    in
    let prm = S1.default_params ~n:sz.n ~eps in
    let shift =
      prm.S1.gamma0_scale *. float_of_int sz.n
      /. (2.0 ** float_of_int (first.S1.chain_steps - 1))
    in
    let jl_ms =
      Harness.median
        (List.init 5 (fun i ->
             snd
               (Harness.timed_ms (fun () ->
                    let (_ : int -> int -> float) =
                      Ds_linalg.Resistance.jl_estimator (Prng.create (Harness.instance_seed + i))
                        first.S1.sparsifier ~shift ~reps:prm.S1.jl_reps ()
                    in
                    ()))))
    in
    Harness.
      [
        traced_metric runs "level_bank.update_ns" "ns" (fun t ->
            self_ns t "bench.sparsify1p.update" /. float_of_int updates);
        traced_metric runs "sparsify1p.decode_ms" "ms" (fun t ->
            self_ns t "bench.sparsify1p.decode" /. 1e6);
        metric "sparsify1p.chain_steps" "count" (float_of_int first.S1.chain_steps);
        metric ~samples:5 "level_bank.query_ns" "ns" query_ns;
        metric ~samples:5 "resistance.jl_estimator_ms" "ms" jl_ms;
        metric "spectral.pencil_ms" "ms" pencil_ms;
      ]
    @ Harness.job_trace_metrics ~runs ~layers
  in
  {
    Harness.e2e =
      Harness.job_metrics ~setup_times:(before @ after) ~runs ~updates
        ~ingest_ms:(fun r -> snd r.Harness.kept)
        ~output_edges:(Weighted_graph.num_edges first.S1.sparsifier)
        ~sketch_words:first.S1.space_words ~peak_rss_mb;
    extra = [];
    layers = (if trace then layer_metrics () else []);
    checks =
      Harness.
        [
          check "sparsifier pencil within [1-eps, 1+eps], no kernel leak" pencil_ok
            (Printf.sprintf "lambda [%.4f, %.4f], leak %.2e, eps %.2f"
               bounds.Ds_linalg.Spectral.lambda_min bounds.Ds_linalg.Spectral.lambda_max
               bounds.Ds_linalg.Spectral.kernel_leak eps);
          reproduced;
        ];
    attempted = 1 + List.length runs;
    failed = (if pencil_ok then 0 else 1) + mismatches;
    inputs = Harness.digest_stream stream;
    notes = [];
  }
