(* forest-par: parallel AGM ingest (Shard_ingest.agm on a Pool of one
   domain per core, with a replica arena) of a churned preferential-
   attachment graph, then Borůvka (Agm_sketch.spanning_forest).  The only
   workload where lib/par and the batched AGM kernels do the work; skewed
   degrees make the shards uneven. *)

open Ds_util
open Ds_graph
module Agm = Ds_agm.Agm_sketch
module Shard = Ds_par.Shard_ingest

type size = { n : int; m : int; decoys : int }

let full = { n = 384; m = 8; decoys = 40_000 }
let smoke = { n = 64; m = 4; decoys = 1_500 }

let layers =
  [
    "bench.agm_sketch.reset";
    "bench.shard_ingest.agm";
    "bench.agm_sketch.spanning_forest";
  ]

(* The forest must be acyclic, made of input edges, and span every
   component: n - components edges. *)
let forest_ok g forest =
  let uf = Union_find.create (Graph.n g) in
  List.for_all (fun (u, v) -> Graph.mem_edge g u v && Union_find.union uf u v) forest
  && List.length forest = Graph.n g - Components.count g

let run ~smoke:is_smoke ~seed ~seconds ~trace =
  let sz = if is_smoke then smoke else full in
  let root = Prng.create Harness.instance_seed in
  let domains = Domain.recommended_domain_count () in
  let setup () =
    let g = Gen.preferential_attachment (Prng.split_named root "graph") ~n:sz.n ~m:sz.m in
    let stream = Ds_stream.Stream_gen.with_churn (Prng.create seed) ~decoys:sz.decoys g in
    let pool = Ds_par.Pool.create ~domains () in
    let sketch =
      Agm.create (Prng.split_named root "sketch") ~n:sz.n ~params:(Agm.default_params ~n:sz.n)
    in
    (g, stream, pool, Shard.agm_arena (), sketch)
  in
  let discard (_, _, pool, _, _) = Ds_par.Pool.shutdown pool in
  let (g, stream, pool, arena, sketch), before =
    Harness.setups ~discard ~warmup:true ~times:4 setup
  in
  let updates = Array.length stream in
  let job () =
    Ds_obs.Trace.with_span "bench.job" (fun () ->
        Ds_obs.Trace.with_span "bench.agm_sketch.reset" (fun () -> Agm.reset sketch);
        let (), ingest_ms =
          Harness.timed_ms (fun () ->
              Ds_obs.Trace.with_span "bench.shard_ingest.agm" (fun () ->
                  Shard.agm pool ~arena sketch stream))
        in
        let forest =
          Ds_obs.Trace.with_span "bench.agm_sketch.spanning_forest" (fun () ->
              Agm.spanning_forest sketch)
        in
        (forest, ingest_ms))
  in
  let first, _ = job () in
  let first_ok = forest_ok g first in
  let digest = Harness.digest_edges first in
  let runs =
    Harness.jobs ~trace ~seconds
      ~keep:(fun (forest, ingest_ms) -> (Harness.digest_edges forest, ingest_ms))
      job
  in
  let peak_rss_mb = Harness.peak_rss_mb None in
  let arena_bytes = Shard.arena_bytes arena in
  Ds_par.Pool.shutdown pool;
  let reproduced, mismatches =
    Harness.reproduce_check "forest" ~same:(fun (d, _) -> d = digest) runs
  in
  let ingest_times = List.map (fun r -> snd r.Harness.kept) runs in
  (* Linearity check, after the peak-RSS reading: the pool-ingested
     sketch must serialize byte-identical to a sequential update_batch
     into a sketch with the same seed.  Its timing is the sequential
     kernel's cost for the traced run's speedup. *)
  let reference =
    Agm.create (Prng.split_named root "sketch") ~n:sz.n ~params:(Agm.default_params ~n:sz.n)
  in
  let sequential_ms () =
    Agm.reset reference;
    Harness.settle ();
    snd (Harness.timed_ms (fun () -> Agm.update_batch reference stream))
  in
  let seq_times = List.init (if trace then 3 else 1) (fun _ -> sequential_ms ()) in
  let identical = String.equal (Agm.serialize reference) (Agm.serialize sketch) in
  let last, after = Harness.setups ~discard ~warmup:false ~times:4 setup in
  discard last;
  let layer_metrics () =
    let seq_ms = Harness.median seq_times in
    Harness.
      [
        metric ~samples:(List.length seq_times) "agm_sketch.update_ns" "ns"
          (seq_ms *. 1e6 /. float_of_int updates);
        traced_metric runs "shard_ingest.ingest_ms" "ms" (fun t ->
            total_ns t "bench.shard_ingest.agm" /. 1e6);
        metric ~samples:(List.length ingest_times) "shard_ingest.speedup" "ratio"
          (seq_ms /. median ingest_times);
        traced_metric runs "shard_ingest.worker_busy_frac" "ratio" (fun t ->
            total_ns t "par.worker"
            /. (float_of_int (max 1 (count t "par.worker")) *. total_ns t "par.ingest"));
        metric "shard_ingest.arena_bytes" "bytes" (float_of_int arena_bytes);
        traced_metric runs "agm_sketch.spanning_forest_ms" "ms" (fun t ->
            total_ns t "bench.agm_sketch.spanning_forest" /. 1e6);
      ]
    @ Harness.job_trace_metrics ~runs ~layers
  in
  {
    Harness.e2e =
      Harness.job_metrics ~setup_times:(before @ after) ~runs ~updates
        ~ingest_ms:(fun r -> snd r.Harness.kept)
        ~output_edges:(List.length first) ~sketch_words:(Agm.space_in_words sketch) ~peak_rss_mb;
    extra = [ Harness.metric "pool_domains" "domains" (float_of_int domains) ];
    layers = (if trace then layer_metrics () else []);
    checks =
      Harness.
        [
          check "forest: n - components real, acyclic edges" first_ok
            (Printf.sprintf "%d edges, n %d, %d components" (List.length first) sz.n
               (Components.count g));
          check "pool-ingested sketch serializes as sequential update_batch" identical
            (Printf.sprintf "%d domains" domains);
          reproduced;
        ];
    attempted = 1 + List.length runs;
    failed = (if first_ok && identical then 0 else 1) + mismatches;
    inputs = Harness.digest_stream stream;
    notes = [];
  }
