(* Serving-layer bench.

     dune exec bench/serve.exe [-- OUTPUT.json]

   Measures the two latencies the serving layer promises to keep bounded
   and writes them as machine-readable JSON (default ./BENCH_serve.json,
   schema bench_serve/v3) so bench/guard.exe can gate later PRs:

   - ingest round-trip latency through the real Unix-socket path (fork a
     server, drive a seeded Loadgen plan frame by frame, feed every
     ack's wall clock into a [Ds_obs.Quantile] sketch) — p50/p90/p99/
     p999 and throughput;
   - crash recovery: build a multi-tenant checkpoint store, discard the
     live server, and time [Server.create]'s recovery walk (decode +
     verify + load of the newest good generation per tenant);
   - checkpoint write: the fsync-bounded cost of one [Flush];
   - enabled-observability overhead: [obs_pairs] paired off/on server
     runs of the same seeded workload (telemetry registry + quantiles +
     tracing enabled in the "on" child), alternating which runs first,
     reported as the clamped median wall ratio [serve_obs_overhead_frac]
     so the guard can hold the serve path's observability tax under its
     budget.

   Percentile ceilings live in the guard, not here: this file records
   what the machine did, the guard decides what is acceptable. *)

module Server = Ds_serve.Server
module Client = Ds_serve.Client
module Loadgen = Ds_serve.Loadgen

let start_server ?(obs = false) config ~socket_path =
  match Unix.fork () with
  | 0 ->
      if obs then Ds_obs.Export.enable ();
      (try Server.run_unix (Server.create config) ~socket_path ~tick:0.002 ()
       with _ -> ());
      Unix._exit 0
  | pid ->
      let rec wait_listening tries =
        if tries = 0 then failwith "bench serve: server did not come up";
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
        | () -> Unix.close fd
        | exception Unix.Unix_error _ ->
            Unix.close fd;
            Unix.sleepf 0.02;
            wait_listening (tries - 1)
      in
      wait_listening 250;
      pid

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

let seed = 20140721 + 19
let tenants = 2
let streams_per_tenant = 4
let updates = 6_000
let n = 128
let batch = 8

(* Off/on pairs of the overhead phase, 1.2-1.8 s each on a 2-core host.
   Odd, so the median is one pair's ratio. *)
let obs_pairs = 35

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_serve.json" in
  let plan = Loadgen.make ~seed ~tenants ~streams_per_tenant ~updates ~n ~batch () in
  let frames =
    List.fold_left (fun a s -> a + Loadgen.frame_count s) 0 plan.Loadgen.p_specs
  in
  Fmt.pr "serve bench: %d tenants x %d streams, %d frames (n=%d, batch=%d)@." tenants
    streams_per_tenant frames n batch;

  (* The socket phase writes the store the recovery phase then walks, so
     the two share one temp dir. *)
  let ingest, durability =
    Bench_kit.with_temp_dir "dynospan-bench-serve" @@ fun dir ->
    (* --- ingest latency through the socket -------------------------- *)
    let socket_path = Filename.concat dir "sock" in
    let config =
      { (Server.default_config ~dir) with Server.checkpoint_every = 64; drain_per_tick = 64 }
    in
    let pid = start_server config ~socket_path in
    let client = Client.connect ~socket_path ~delay_unit:0.005 () in
    List.iter
      (fun s ->
        match
          Client.create_stream client ~tenant:s.Loadgen.l_tenant ~stream:s.Loadgen.l_stream
            ~family:s.Loadgen.l_family ~n:s.Loadgen.l_n ~seed:s.Loadgen.l_seed
        with
        | Ok _ -> ()
        | Error m -> failwith ("bench serve: create: " ^ m))
      plan.Loadgen.p_specs;
    (* Client-side wall clock per acked frame, accumulated in the same
       fixed-memory quantile sketch the serve path itself uses — so the
       bench reports the estimator we actually ship, tails included. *)
    let lat = Ds_obs.Quantile.make () in
    let t0 = Ds_obs.Clock.now_ns () in
    List.iter
      (fun s ->
        List.iter
          (fun payload ->
            let t = Ds_obs.Clock.now_ns () in
            (match
               Client.ingest client ~tenant:s.Loadgen.l_tenant ~stream:s.Loadgen.l_stream
                 ~payload
             with
            | Ok () -> ()
            | Error m -> failwith ("bench serve: ingest: " ^ m));
            Ds_obs.Quantile.observe lat (Int64.to_int (Ds_obs.Clock.elapsed_ns t)))
          (Loadgen.batches s))
      plan.Loadgen.p_specs;
    let ingest_wall = Bench_kit.seconds_since t0 in
    (* Checkpoint write cost: one Flush over every dirty tenant. *)
    let flush_ms =
      let t = Ds_obs.Clock.now_ns () in
      List.iter
        (fun tenant ->
          match Client.flush client ~tenant with
          | Ok _ -> ()
          | Error m -> failwith ("bench serve: flush: " ^ m))
        (List.sort_uniq compare
           (List.map (fun s -> s.Loadgen.l_tenant) plan.Loadgen.p_specs));
      1000.0 *. Bench_kit.seconds_since t
    in
    Client.close client;
    stop_server pid;
    let s = Ds_obs.Quantile.summarize lat in
    let ms ns = ns /. 1e6 in
    let p50 = ms s.Ds_obs.Quantile.s_p50
    and p90 = ms s.Ds_obs.Quantile.s_p90
    and p99 = ms s.Ds_obs.Quantile.s_p99
    and p999 = ms s.Ds_obs.Quantile.s_p999 in
    let rate = float_of_int frames /. ingest_wall in
    Fmt.pr "  ingest  %d frames in %.2fs (%.0f frames/s)@." frames ingest_wall rate;
    Fmt.pr "  latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, p999 %.3f ms@." p50 p90 p99 p999;
    Fmt.pr "  flush   %.1f ms (%d tenants, fsync-bounded)@." flush_ms tenants;

    (* --- recovery time ---------------------------------------------- *)
    (* The store just written by the socket phase is the recovery corpus:
       every stream checkpointed at full depth.  Time the walk. *)
    let t = Ds_obs.Clock.now_ns () in
    let recovered = Server.create config in
    let recovery_ms = 1000.0 *. Bench_kit.seconds_since t in
    let rr = Server.recovery_report recovered in
    Fmt.pr "  recovery %.1f ms (%d tenants, %d streams, %d quarantined)@." recovery_ms
      rr.Server.r_tenants rr.Server.r_streams rr.Server.r_quarantined;
    if rr.Server.r_streams <> tenants * streams_per_tenant then
      failwith "bench serve: recovery lost streams";
    let open Ds_util.Json in
    ( Obj
        [
          ("frames_per_sec", Bench_kit.fixed 0 rate);
          ("ingest_p50_ms", Bench_kit.fixed 3 p50);
          ("ingest_p90_ms", Bench_kit.fixed 3 p90);
          ("ingest_p99_ms", Bench_kit.fixed 3 p99);
          ("ingest_p999_ms", Bench_kit.fixed 3 p999);
        ],
      Obj
        [
          ("flush_ms", Bench_kit.fixed 1 flush_ms);
          ("recovery_ms", Bench_kit.fixed 1 recovery_ms);
          ("recovery_streams", int rr.Server.r_streams);
        ] )
  in

  (* --- enabled-observability overhead ------------------------------- *)
  (* Same seeded workload against a telemetry-off and a telemetry-on
     server child (quantiles + counters + span tracing + per-tenant
     stats all live in the "on" child).  A single pair's ratio swings
     by +-10% on a 2-core host, so the fraction is the median over
     [obs_pairs] pairs, and every other pair runs "on" first so that
     whatever favours the first (or second) run of a pair cancels.  It
     is clamped at zero since on a syscall-dominated path scheduler
     noise swamps a few atomics. *)
  let obs_plan =
    Loadgen.make ~seed:(seed + 1) ~tenants:2 ~streams_per_tenant:2 ~updates:1_500 ~n:64
      ~batch:8 ()
  in
  let run_once ~obs =
    Bench_kit.with_temp_dir "dynospan-bench-serve" @@ fun dir ->
    let socket_path = Filename.concat dir "sock" in
    let config =
      { (Server.default_config ~dir) with Server.checkpoint_every = 64; drain_per_tick = 64 }
    in
    let pid = start_server ~obs config ~socket_path in
    let client = Client.connect ~socket_path ~delay_unit:0.005 () in
    let t = Ds_obs.Clock.now_ns () in
    let o = Loadgen.run client obs_plan ~ledger:None in
    let wall = Bench_kit.seconds_since t in
    Client.close client;
    stop_server pid;
    if o.Loadgen.o_failed_frames > 0 then failwith "bench serve: obs phase dropped frames";
    wall
  in
  let ratios =
    Array.init obs_pairs (fun i ->
        let off, on =
          if i land 1 = 0 then
            let off = run_once ~obs:false in
            (off, run_once ~obs:true)
          else
            let on = run_once ~obs:true in
            (run_once ~obs:false, on)
        in
        (on -. off) /. off)
  in
  let pct q = 100.0 *. Ds_util.Stats.percentile ratios q in
  let obs_overhead = max 0.0 (Ds_util.Stats.median ratios) in
  Fmt.pr "  obs overhead %.2f%% (median of %d alternating off/on pairs; quartiles %+.1f%% %+.1f%%)@."
    (100.0 *. obs_overhead) obs_pairs (pct 25.0) (pct 75.0);

  let open Ds_util.Json in
  Bench_kit.write ~path:out
    (Bench_kit.document ~schema:"bench_serve/v3"
       [
         ( "workload",
           Obj
             [
               ("tenants", int tenants);
               ("streams_per_tenant", int streams_per_tenant);
               ("frames", int frames);
               ("n", int n);
               ("batch", int batch);
             ] );
         ("ingest", ingest);
         ("durability", durability);
         ("observability", Obj [ ("serve_obs_overhead_frac", Bench_kit.fixed 4 obs_overhead) ]);
       ])
