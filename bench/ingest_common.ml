(* Shared measurement harness for the ingestion benchmarks (bench/ingest.ml
   writes BENCH_ingest.json from these numbers; experiment E14 in
   bench/main.ml prints them as a table). *)

open Ds_util
open Ds_stream

let seed = 20140721

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* Signed coordinate updates over edge-index space, for the L0 micro-bench. *)
let l0_workload ~dim ~updates =
  let rng = Prng.create (seed + 41) in
  Array.init updates (fun _ -> (Prng.int rng dim, if Prng.bool rng then 1 else -1))

(* An insert-heavy dynamic edge stream for the AGM end-to-end bench. *)
let agm_workload ~n ~updates =
  let rng = Prng.create (seed + 43) in
  Array.init updates (fun _ ->
      let u = Prng.int rng n in
      let v = (u + 1 + Prng.int rng (n - 1)) mod n in
      if Prng.int rng 4 = 0 then Update.delete u v else Update.insert u v)

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

(* Wall-clock ops/sec of [f ()] applying [ops] updates; best of [reps] so a
   stray scheduler hiccup cannot deflate a rate. *)
let rate ?(reps = 3) ~ops f =
  let best = ref infinity in
  for _ = 1 to reps do
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  float_of_int ops /. !best

(* ------------------------------------------------------------------ *)
(* Single-thread: baseline (pre-kernel) vs kernelized                  *)
(* ------------------------------------------------------------------ *)

let l0_params = Ds_sketch.L0_sampler.default_params

(* One_sparse micro: the tightest kernel — pre-PR each update paid an
   O(log dim) modular exponentiation; the ladder makes it one multiply. *)
let baseline_one_sparse_rate ~dim ~updates =
  let w = l0_workload ~dim ~updates in
  let sk = Baseline.One_sparse.create (Prng.create seed) ~dim in
  rate ~ops:updates (fun () ->
      Array.iter (fun (index, delta) -> Baseline.One_sparse.update sk ~index ~delta) w)

let kernel_one_sparse_rate ~dim ~updates =
  let w = l0_workload ~dim ~updates in
  let sk = Ds_sketch.One_sparse.create (Prng.create seed) ~dim in
  rate ~ops:updates (fun () -> Ds_sketch.One_sparse.update_batch sk w)

(* Sparse-recovery micro: rows cells per update, each formerly paying the
   exponentiation plus a full re-fold per row. *)
let baseline_sr_rate ~dim ~updates =
  let w = l0_workload ~dim ~updates in
  let sk =
    Baseline.Sparse_recovery.create (Prng.create seed) ~dim ~sparsity:l0_params.sparsity
      ~rows:l0_params.rows ~hash_degree:l0_params.hash_degree
  in
  rate ~ops:updates (fun () ->
      Array.iter (fun (index, delta) -> Baseline.Sparse_recovery.update sk ~index ~delta) w)

let kernel_sr_rate ~dim ~updates =
  let w = l0_workload ~dim ~updates in
  let sk =
    Ds_sketch.Sparse_recovery.create (Prng.create seed) ~dim
      ~params:
        {
          Ds_sketch.Sparse_recovery.sparsity = l0_params.sparsity;
          rows = l0_params.rows;
          hash_degree = l0_params.hash_degree;
        }
  in
  rate ~ops:updates (fun () -> Ds_sketch.Sparse_recovery.update_batch sk w)

let baseline_l0_rate ~dim ~updates =
  let w = l0_workload ~dim ~updates in
  let sk =
    Baseline.L0_sampler.create (Prng.create seed) ~dim ~sparsity:l0_params.sparsity
      ~rows:l0_params.rows ~hash_degree:l0_params.hash_degree
  in
  rate ~ops:updates (fun () ->
      Array.iter (fun (index, delta) -> Baseline.L0_sampler.update sk ~index ~delta) w)

let kernel_l0_rate ~dim ~updates =
  let w = l0_workload ~dim ~updates in
  let sk = Ds_sketch.L0_sampler.create (Prng.create seed) ~dim ~params:l0_params in
  rate ~ops:updates (fun () -> Ds_sketch.L0_sampler.update_batch sk w)

let agm_params ~n = Ds_agm.Agm_sketch.default_params ~n

(* ------------------------------------------------------------------ *)
(* GC cost: allocation pressure of the ingest kernels                  *)
(* ------------------------------------------------------------------ *)

(* Major-heap words allocated and minor collections per run of [f],
   averaged over [reps] after one warm-up run (arenas fill, one-time
   setup drops out).  Counter state itself is off-heap (Ds_util.Words),
   so what this measures is exactly the per-run structural garbage:
   replica towers, boxed scratch, closure spines.  [Gc.stat] rather
   than [quick_stat]: replicas are cloned on pool domains, and only the
   former aggregates minor-collection counts across domains. *)
let gc_cost ?(reps = 3) f =
  f ();
  Gc.full_major ();
  let s0 = Gc.stat () in
  for _ = 1 to reps do
    f ()
  done;
  let s1 = Gc.stat () in
  ( (s1.Gc.major_words -. s0.Gc.major_words) /. float_of_int reps,
    float_of_int (s1.Gc.minor_collections - s0.Gc.minor_collections) /. float_of_int reps )

let kernel_l0_gc ~dim ~updates =
  let w = l0_workload ~dim ~updates in
  let sk = Ds_sketch.L0_sampler.create (Prng.create seed) ~dim ~params:l0_params in
  gc_cost (fun () -> Ds_sketch.L0_sampler.update_batch sk w)

let kernel_agm_gc ~n ~updates =
  let w = agm_workload ~n ~updates in
  let sk = Ds_agm.Agm_sketch.create (Prng.create seed) ~n ~params:(agm_params ~n) in
  gc_cost (fun () -> Ds_agm.Agm_sketch.update_batch sk w)

(* The clone-elimination comparison: the same parallel ingest with fresh
   [clone_zero] replicas every run vs recycled arena replicas. *)
let parallel_agm_gc ~n ~updates ~domains ~arena:use_arena =
  let w = agm_workload ~n ~updates in
  let proto = Ds_agm.Agm_sketch.create (Prng.create seed) ~n ~params:(agm_params ~n) in
  Ds_par.Pool.with_pool ~domains (fun pool ->
      let arena = if use_arena then Some (Ds_par.Shard_ingest.agm_arena ()) else None in
      gc_cost (fun () -> Ds_par.Shard_ingest.agm pool ?arena proto w))

let baseline_agm_rate ~n ~updates =
  let w = agm_workload ~n ~updates in
  let prm = agm_params ~n in
  let sk =
    Baseline.Agm_sketch.create (Prng.create seed) ~n ~copies:prm.copies
      ~sparsity:prm.sampler.sparsity ~rows:prm.sampler.rows
      ~hash_degree:prm.sampler.hash_degree
  in
  rate ~ops:updates (fun () ->
      Array.iter
        (fun (u : Update.t) ->
          Baseline.Agm_sketch.update sk ~u:u.Update.u ~v:u.Update.v ~delta:(Update.delta u))
        w)

let kernel_agm_rate ~n ~updates =
  let w = agm_workload ~n ~updates in
  let sk = Ds_agm.Agm_sketch.create (Prng.create seed) ~n ~params:(agm_params ~n) in
  rate ~ops:updates (fun () -> Ds_agm.Agm_sketch.update_batch sk w)

(* ------------------------------------------------------------------ *)
(* Parallel: sharded ingestion on a domain pool                        *)
(* ------------------------------------------------------------------ *)

let parallel_agm_rate ~n ~updates ~domains =
  let w = agm_workload ~n ~updates in
  let proto = Ds_agm.Agm_sketch.create (Prng.create seed) ~n ~params:(agm_params ~n) in
  Ds_par.Pool.with_pool ~domains (fun pool ->
      rate ~ops:updates (fun () -> Ds_par.Shard_ingest.agm pool proto w))

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: the instrumented sharded AGM path, registry off
   vs on.  Instrumentation is batch-granular, so both rates should be
   within noise of each other; the bench guard enforces < 3%.

   On a shared machine the noise floor (load epochs at every timescale
   from milliseconds to minutes) is larger than the few-percent gate,
   so coarse interleaving — timing whole-workload windows off, on, off,
   on — is not enough: an epoch boundary landing inside a window biases
   whole ratios.  Instead the workload is cut into small chunks and
   each chunk is timed in both configurations back to back, so the two
   sides of every ratio sample the same few milliseconds of machine
   state.  The order within a chunk alternates (off-first, on-first) to
   cancel the cache-warmth advantage of running the same chunk second.
   Per pass the chunk times are summed per side; the reported overhead
   fraction is the median of per-pass on/off ratios, and the reported
   rates are the best pass of each side. *)

let overhead_agm_rates ~enable ~disable ~n ~updates ~domains =
  let w = agm_workload ~n ~updates in
  let proto = Ds_agm.Agm_sketch.create (Prng.create seed) ~n ~params:(agm_params ~n) in
  Ds_par.Pool.with_pool ~domains (fun pool ->
      (* Big enough to amortize the per-call shard/merge cost, small
         enough that a pair still sits inside one load epoch. *)
      let chunk = 2000 in
      let nchunks = (updates + chunk - 1) / chunk in
      let chunks =
        Array.init nchunks (fun i ->
            let lo = i * chunk in
            Array.sub w lo (min chunk (updates - lo)))
      in
      let time_chunk c =
        let t0 = Unix.gettimeofday () in
        Ds_par.Shard_ingest.agm pool proto c;
        Unix.gettimeofday () -. t0
      in
      let passes = 7 in
      let ratios = Array.make passes 0.0 in
      let best_off = ref infinity and best_on = ref infinity in
      for pass = 0 to passes - 1 do
        Gc.compact ();
        let t_off = ref 0.0 and t_on = ref 0.0 in
        Array.iteri
          (fun i c ->
            let off_first = (i + pass) land 1 = 0 in
            let side first =
              if first = off_first then (disable (); t_off := !t_off +. time_chunk c)
              else (enable (); t_on := !t_on +. time_chunk c)
            in
            side true;
            side false)
          chunks;
        ratios.(pass) <- !t_on /. !t_off;
        if !t_off < !best_off then best_off := !t_off;
        if !t_on < !best_on then best_on := !t_on
      done;
      disable ();
      Ds_obs.Export.reset ();
      Array.sort compare ratios;
      let median = ratios.(passes / 2) in
      let ops = float_of_int updates in
      (ops /. !best_off, ops /. !best_on, median -. 1.0))

let metrics_overhead_agm_rates ~n ~updates ~domains =
  overhead_agm_rates ~enable:Ds_obs.Export.enable ~disable:Ds_obs.Export.disable ~n ~updates
    ~domains

(* Causal tracing alone (registry off): the span stack push/pop and ring
   stores on the sharded path.  Spans are batch-granular like the
   counters, so the gate is the same <3% the guard enforces for
   metrics. *)
let tracing_overhead_agm_rates ~n ~updates ~domains =
  overhead_agm_rates
    ~enable:(fun () -> Ds_obs.Trace.set_enabled true)
    ~disable:(fun () -> Ds_obs.Trace.set_enabled false)
    ~n ~updates ~domains
