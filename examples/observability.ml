(* Observability: metrics, span traces and the space ledger around a
   sketching pipeline.

       dune exec examples/observability.exe

   The telemetry subsystem (lib/obs) is off by default and costs one
   predicted branch per instrumentation site when disabled.  Turning it
   on makes every library on the hot path -- sharded ingestion, the
   sketch codec, the cluster simulator, both spanner algorithms --
   publish counters, spans and space-ledger entries into one global
   registry, exported here as a human summary, Prometheus text and
   Chrome-traceable JSONL. *)

open Ds_util
open Ds_graph
open Ds_stream
open Ds_core

let () =
  let n = 160 in
  let rng = Prng.create 2014 in

  (* 1. Switch the registry on.  Everything before this line is free. *)
  Ds_obs.Export.enable ();

  let graph = Gen.connected_gnp (Prng.split rng) ~n ~p:0.05 in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:1200 graph in

  (* 2. Run an instrumented workload: the two-pass spanner records spans
     for both passes and the clustering step, bumps per-pass update
     counters, and files two space-ledger entries checked against the
     k n^(1+1/k) log n bound of Theorem 1. *)
  let k = 3 in
  let result =
    Two_pass_spanner.run (Prng.split rng) ~n ~params:(Two_pass_spanner.default_params ~k) stream
  in
  Fmt.pr "spanner: %d edges from %d updates@."
    (Graph.num_edges result.Two_pass_spanner.spanner)
    (Array.length stream);

  (* A second workload so the export shows more than one subsystem: ship
     the same stream through the 4-server cluster simulator. *)
  let module CS = Ds_sim.Cluster_sim in
  let shipped = CS.run (Prng.create 2014) ~n ~servers:4 stream in
  Fmt.pr "cluster: merged forest correct=%b over %d servers@." shipped.CS.forest_correct
    shipped.CS.servers;

  (* 3. Read the registry back.  [pp_summary] is what dynospan prints
     with --metrics; the JSON/Prometheus/JSONL forms feed dashboards. *)
  Fmt.pr "@.-- summary ------------------------------------------------------@.";
  Fmt.pr "%a" Ds_obs.Export.pp_summary ();

  Fmt.pr "@.-- prometheus (excerpt) -----------------------------------------@.";
  let prom = Ds_obs.Export.prometheus () in
  String.split_on_char '\n' prom
  |> List.filter (fun l ->
         List.exists
           (fun p -> String.length l >= String.length p && String.sub l 0 (String.length p) = p)
           [ "# TYPE spanner"; "spanner_"; "cluster_envelopes"; "par_ingest_updates" ])
  |> List.iter print_endline;

  Fmt.pr "@.-- spans (JSONL) ------------------------------------------------@.";
  print_string (Ds_obs.Trace.to_jsonl ());

  (* 4. The ledger entries carry the measured constant in front of the
     theorem bound -- the number the paper leaves inside O(.). *)
  Fmt.pr "@.-- space ledger -------------------------------------------------@.";
  List.iter
    (fun e ->
      Fmt.pr "%a@." Ds_obs.Ledger.pp_entry e;
      assert (Ds_obs.Ledger.check e))
    (Ds_obs.Ledger.entries ());

  Ds_obs.Export.disable ();
  Ds_obs.Export.reset ();
  Fmt.pr "@.OK: one registry, four export formats, zero cost when off.@."
