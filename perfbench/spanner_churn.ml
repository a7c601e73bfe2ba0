(* spanner-churn: Theorem 1's two-pass 2^k-spanner (Two_pass_spanner.run,
   k = 3) over a connected G(n,p) in which every non-edge is inserted and
   later deleted.  Hashing, both passes' update kernels, structure
   derivation and the peeling decoders share the time; no codec, serve or
   lib/par code runs. *)

open Ds_util
open Ds_graph
module T = Ds_core.Two_pass_spanner

type size = { n : int; p : float; decoys : int; k : int }

let full = { n = 256; p = 0.08; decoys = 50_000; k = 3 }
let smoke = { n = 48; p = 0.15; decoys = 1_000; k = 3 }

let layers =
  [ "spanner.derive"; "spanner.pass1"; "spanner.clustering"; "spanner.pass2"; "spanner.extract" ]

let run ~smoke:is_smoke ~seed ~seconds ~trace =
  let sz = if is_smoke then smoke else full in
  let root = Prng.create Harness.instance_seed in
  let setup () =
    let g = Gen.connected_gnp (Prng.split_named root "graph") ~n:sz.n ~p:sz.p in
    (g, Ds_stream.Stream_gen.with_churn (Prng.create seed) ~decoys:sz.decoys g)
  in
  let (g, stream), before = Harness.setups ~warmup:true ~times:4 setup in
  let updates = Array.length stream in
  let params = T.default_params ~k:sz.k in
  let job_rng = Prng.split_named root "spanner" in
  let job () =
    Ds_obs.Trace.with_span "bench.job" (fun () ->
        Ds_obs.Trace.with_span "bench.two_pass_spanner.run" (fun () ->
            T.run (Prng.copy job_rng) ~n:sz.n ~params stream))
  in
  (* Warm-up job: discarded from the timings, verified in full. *)
  let first = job () in
  let spanner = first.T.spanner in
  let subgraph = Graph.is_subgraph ~sub:spanner ~super:g in
  let stretch = Ds_core.Stretch.multiplicative ~base:g ~spanner in
  let bound = float_of_int (1 lsl sz.k) in
  let stretch_ok =
    stretch.Ds_core.Stretch.violations = 0 && stretch.Ds_core.Stretch.max <= bound
  in
  let digest = Harness.digest_edges (Graph.edges spanner) in
  let runs =
    Harness.jobs ~trace ~seconds ~keep:(fun r -> Harness.digest_edges (Graph.edges r.T.spanner)) job
  in
  let peak_rss_mb = Harness.peak_rss_mb None in
  let reproduced, mismatches = Harness.reproduce_check "spanner" ~same:(( = ) digest) runs in
  let d = first.T.diagnostics in
  let declines =
    d.T.pass1_decode_failures + d.T.table_decode_failures + d.T.payload_decode_failures
  in
  let _, after = Harness.setups ~warmup:false ~times:4 setup in
  let layer_metrics () =
    let self name per t = Harness.self_ns t name /. per in
    Harness.
      [
        traced_metric runs "two_pass_spanner.derive_ms" "ms" (self "spanner.derive" 1e6);
        traced_metric runs "two_pass_spanner.pass1_ns_per_update" "ns"
          (self "spanner.pass1" (float_of_int updates));
        traced_metric runs "two_pass_spanner.pass2_ns_per_update" "ns"
          (self "spanner.pass2" (float_of_int updates));
        traced_metric runs "two_pass_spanner.clustering_ms" "ms" (self "spanner.clustering" 1e6);
        traced_metric runs "two_pass_spanner.extract_ms" "ms" (self "spanner.extract" 1e6);
        metric "two_pass_spanner.decode_declines" "count" (float_of_int declines);
        metric "two_pass_spanner.recovered_frac" "ratio"
          (float_of_int d.T.recovered_edges
          /. float_of_int
               (max 1
                  (d.T.recovered_edges + d.T.payload_decode_failures
                 + d.T.table_decode_failures)));
      ]
    @ Harness.job_trace_metrics ~runs ~layers
  in
  {
    Harness.e2e =
      (* Ingest is inside Two_pass_spanner.run: the whole job is its time. *)
      Harness.job_metrics ~setup_times:(before @ after) ~runs ~updates
        ~ingest_ms:(fun r -> r.Harness.ms)
        ~output_edges:(Graph.num_edges spanner) ~sketch_words:first.T.space_words ~peak_rss_mb;
    extra = [];
    layers = (if trace then layer_metrics () else []);
    checks =
      Harness.
        [
          check "spanner is a subgraph of the input" subgraph
            (Printf.sprintf "%d of %d edges" (Graph.num_edges spanner) (Graph.num_edges g));
          check "stretch within 2^k, no violations" stretch_ok
            (Printf.sprintf "max %.2f <= %.0f, %d violations" stretch.Ds_core.Stretch.max bound
               stretch.Ds_core.Stretch.violations);
          reproduced;
        ];
    attempted = 1 + List.length runs;
    failed = (if subgraph && stretch_ok then 0 else 1) + mismatches;
    inputs = Harness.digest_stream stream;
    notes = [];
  }
