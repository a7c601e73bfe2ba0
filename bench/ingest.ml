(* Ingestion-throughput trajectory bench.

     dune exec bench/ingest.exe [-- OUTPUT.json]

   Measures, in one run on one machine: (a) the pre-kernel single-thread
   baseline (bench/baseline.ml, the hot path as it stood before the batched
   update kernels), (b) the kernelized single-thread rate, and (c) the
   domain-parallel sharded rate at several pool sizes. Writes the numbers as
   machine-readable JSON (default ./BENCH_ingest.json) so later PRs can
   detect throughput regressions against this PR's trajectory. *)

let dim = Ds_graph.Edge_index.dim 256
let l0_updates = 200_000
let agm_n = 256
let agm_updates = 30_000
let domain_counts = [ 1; 2; 4; 8 ]

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_ingest.json" in
  let module C = Ingest_common in
  Fmt.pr "ingestion bench: L0 micro (dim=%d, %d updates); AGM end-to-end (n=%d, %d updates)@."
    dim l0_updates agm_n agm_updates;
  let baseline_os = C.baseline_one_sparse_rate ~dim ~updates:l0_updates in
  Fmt.pr "  baseline 1sparse %12.0f ops/s@." baseline_os;
  let kernel_os = C.kernel_one_sparse_rate ~dim ~updates:l0_updates in
  Fmt.pr "  kernel   1sparse %12.0f ops/s  (%.2fx)@." kernel_os (kernel_os /. baseline_os);
  let baseline_sr = C.baseline_sr_rate ~dim ~updates:l0_updates in
  Fmt.pr "  baseline srec    %12.0f ops/s@." baseline_sr;
  let kernel_sr = C.kernel_sr_rate ~dim ~updates:l0_updates in
  Fmt.pr "  kernel   srec    %12.0f ops/s  (%.2fx)@." kernel_sr (kernel_sr /. baseline_sr);
  let baseline_l0 = C.baseline_l0_rate ~dim ~updates:l0_updates in
  Fmt.pr "  baseline l0      %12.0f ops/s@." baseline_l0;
  let kernel_l0 = C.kernel_l0_rate ~dim ~updates:l0_updates in
  Fmt.pr "  kernel   l0      %12.0f ops/s  (%.2fx)@." kernel_l0 (kernel_l0 /. baseline_l0);
  let baseline_agm = C.baseline_agm_rate ~n:agm_n ~updates:agm_updates in
  Fmt.pr "  baseline agm     %12.0f ops/s@." baseline_agm;
  let kernel_agm = C.kernel_agm_rate ~n:agm_n ~updates:agm_updates in
  Fmt.pr "  kernel   agm     %12.0f ops/s  (%.2fx)@." kernel_agm (kernel_agm /. baseline_agm);
  let host_cores = Domain.recommended_domain_count () in
  let parallel =
    List.map
      (fun domains ->
        let r = C.parallel_agm_rate ~n:agm_n ~updates:agm_updates ~domains in
        (* Efficiency counts only the domains the host can actually run:
           past [host_cores] the extra domains timeshare, and dividing by
           them would punish the engine for the machine's size. *)
        let eff = r /. kernel_agm /. float_of_int (min domains host_cores) in
        Fmt.pr "  parallel agm x%-2d %12.0f ops/s  (%.2fx vs kernel, eff %.2f)@." domains r
          (r /. kernel_agm) eff;
        (domains, r, eff))
      domain_counts
  in
  (* The domain count to recommend is read off the measured curve, not
     guessed from the core count: the smallest count within 5% of the
     best rate (ties go to fewer domains — replicas are not free). *)
  let best_rate = List.fold_left (fun acc (_, r, _) -> Float.max acc r) 0.0 parallel in
  let recommended =
    List.fold_left
      (fun acc (d, r, _) ->
        match acc with Some _ -> acc | None -> if r >= 0.95 *. best_rate then Some d else None)
      None parallel
    |> Option.value ~default:1
  in
  Fmt.pr "  recommended domain count: %d (host cores %d)@." recommended host_cores;
  let obs_off, obs_on, obs_overhead =
    (* One domain: the point is instrumentation overhead, and pool
       scheduling noise at higher domain counts would drown the signal. *)
    C.metrics_overhead_agm_rates ~n:agm_n ~updates:agm_updates ~domains:1
  in
  Fmt.pr "  metrics overhead  off %.0f ops/s, on %.0f ops/s (%+.2f%% median)@." obs_off obs_on
    (100. *. obs_overhead);
  let tr_off, tr_on, tr_overhead =
    C.tracing_overhead_agm_rates ~n:agm_n ~updates:agm_updates ~domains:1
  in
  Fmt.pr "  tracing overhead  off %.0f ops/s, on %.0f ops/s (%+.2f%% median)@." tr_off tr_on
    (100. *. tr_overhead);
  (* GC trajectory (v3): structural allocation per run, counters being
     off-heap.  The parallel pair quantifies clone elimination — fresh
     replicas every run vs arena-recycled ones. *)
  let gc_l0_major, gc_l0_minor = C.kernel_l0_gc ~dim ~updates:l0_updates in
  Fmt.pr "  gc l0 kernel     %12.0f major words, %.1f minor collections / run@." gc_l0_major
    gc_l0_minor;
  let gc_agm_major, gc_agm_minor = C.kernel_agm_gc ~n:agm_n ~updates:agm_updates in
  Fmt.pr "  gc agm kernel    %12.0f major words, %.1f minor collections / run@." gc_agm_major
    gc_agm_minor;
  let gc_domains = 4 in
  let gc_par_major, gc_par_minor =
    C.parallel_agm_gc ~n:agm_n ~updates:agm_updates ~domains:gc_domains ~arena:false
  in
  Fmt.pr "  gc agm x%d fresh  %12.0f major words, %.1f minor collections / run@." gc_domains
    gc_par_major gc_par_minor;
  let gc_arena_major, gc_arena_minor =
    C.parallel_agm_gc ~n:agm_n ~updates:agm_updates ~domains:gc_domains ~arena:true
  in
  let arena_ratio = if gc_par_major > 0.0 then gc_arena_major /. gc_par_major else 1.0 in
  Fmt.pr "  gc agm x%d arena  %12.0f major words, %.1f minor collections / run (%.2fx)@."
    gc_domains gc_arena_major gc_arena_minor arena_ratio;
  let open Ds_util.Json in
  let rate v = Bench_kit.fixed 0 v and ratio v = Bench_kit.fixed 3 v in
  Bench_kit.write ~path:out
    (Bench_kit.document ~schema:"bench_ingest/v4"
       [
         ("recommended_domain_count", int recommended);
         ( "workloads",
           Obj
             [
               ("l0", Obj [ ("dim", int dim); ("updates", int l0_updates) ]);
               ("agm", Obj [ ("n", int agm_n); ("updates", int agm_updates) ]);
             ] );
         ( "single_thread",
           Obj
             [
               ("baseline_one_sparse_ops_per_sec", rate baseline_os);
               ("kernel_one_sparse_ops_per_sec", rate kernel_os);
               ("one_sparse_kernel_speedup", ratio (kernel_os /. baseline_os));
               ("baseline_sparse_recovery_ops_per_sec", rate baseline_sr);
               ("kernel_sparse_recovery_ops_per_sec", rate kernel_sr);
               ("sparse_recovery_kernel_speedup", ratio (kernel_sr /. baseline_sr));
               ("baseline_l0_ops_per_sec", rate baseline_l0);
               ("kernel_l0_ops_per_sec", rate kernel_l0);
               ("l0_kernel_speedup", ratio (kernel_l0 /. baseline_l0));
               ("baseline_agm_ops_per_sec", rate baseline_agm);
               ("kernel_agm_ops_per_sec", rate kernel_agm);
               ("agm_kernel_speedup", ratio (kernel_agm /. baseline_agm));
             ] );
         ( "metrics_overhead",
           Obj
             [
               ("agm_ops_per_sec_disabled", rate obs_off);
               ("agm_ops_per_sec_enabled", rate obs_on);
               ("enabled_overhead_frac", Bench_kit.fixed 4 obs_overhead);
             ] );
         ( "tracing_overhead",
           Obj
             [
               ("agm_ops_per_sec_disabled", rate tr_off);
               ("agm_ops_per_sec_enabled", rate tr_on);
               ("tracing_overhead_frac", Bench_kit.fixed 4 tr_overhead);
             ] );
         ( "gc",
           Obj
             [
               ("gc_domains", int gc_domains);
               ("kernel_l0_major_words_per_run", rate gc_l0_major);
               ("kernel_l0_minor_collections_per_run", Bench_kit.fixed 1 gc_l0_minor);
               ("kernel_agm_major_words_per_run", rate gc_agm_major);
               ("kernel_agm_minor_collections_per_run", Bench_kit.fixed 1 gc_agm_minor);
               ("parallel_agm_major_words_noarena", rate gc_par_major);
               ("parallel_agm_minor_collections_noarena", Bench_kit.fixed 1 gc_par_minor);
               ("parallel_agm_major_words_arena", rate gc_arena_major);
               ("parallel_agm_minor_collections_arena", Bench_kit.fixed 1 gc_arena_minor);
               ("arena_major_words_ratio", Bench_kit.fixed 4 arena_ratio);
             ] );
         ( "parallel_agm",
           Arr
             (List.map
                (fun (domains, r, eff) ->
                  Obj
                    [
                      ("domains", int domains);
                      ("ops_per_sec", rate r);
                      ("speedup_vs_kernel", ratio (r /. kernel_agm));
                      ("efficiency", ratio eff);
                    ])
                parallel) );
       ])
