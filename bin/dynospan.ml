(* dynospan: command-line driver for the dynamic-stream spanner/sparsifier
   library. Generates a seeded workload graph, turns it into a dynamic
   stream (with optional churn), runs the chosen algorithm, and prints a
   verification report against the offline ground truth. *)

open Ds_util
open Ds_graph
open Ds_stream
open Ds_core
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Workload construction                                               *)
(* ------------------------------------------------------------------ *)

let make_graph rng ~family ~n ~p =
  match family with
  | `Gnp -> Gen.connected_gnp rng ~n ~p
  | `Path -> Gen.path n
  | `Cycle -> Gen.cycle n
  | `Grid ->
      let side = max 2 (int_of_float (sqrt (float_of_int n))) in
      Gen.grid side side
  | `Clique -> Gen.complete n
  | `Barbell -> Gen.barbell (max 2 (n / 2))
  | `Pa -> Gen.preferential_attachment rng ~n ~m:(max 1 (int_of_float (p *. float_of_int n)))

let make_stream rng ~decoys g =
  if decoys = 0 then Stream_gen.insert_only rng g
  else Stream_gen.with_churn rng ~decoys g

(* Argument converters that reject out-of-range values while parsing, so a
   bad argument is a one-line usage error (exit 124) rather than an
   exception from inside the library. *)
let checked conv ok expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let int_at_least lo = checked Arg.int (fun v -> v >= lo) (Printf.sprintf "an integer >= %d" lo)
let positive_int = int_at_least 1
let probability = checked Arg.float (fun r -> r >= 0.0 && r <= 1.0) "a number in [0, 1]"

let eps_conv validate_eps =
  checked Arg.float
    (fun eps -> match validate_eps eps with () -> true | exception _ -> false)
    "a number in (0, 1)"

let graph_conv =
  Arg.enum
    [
      ("gnp", `Gnp);
      ("path", `Path);
      ("cycle", `Cycle);
      ("grid", `Grid);
      ("clique", `Clique);
      ("barbell", `Barbell);
      ("pa", `Pa);
    ]

(* Shared command-line arguments. *)
let n_arg =
  Arg.(value & opt (int_at_least 2) 128 & info [ "n" ] ~docv:"N" ~doc:"Number of vertices.")

let family_arg =
  Arg.(
    value
    & opt graph_conv `Gnp
    & info [ "graph" ] ~docv:"FAMILY"
        ~doc:"Graph family: gnp, path, cycle, grid, clique, barbell, pa.")

let p_arg =
  Arg.(value & opt float 0.05 & info [ "p" ] ~docv:"P" ~doc:"Edge density (gnp) or m/n (pa).")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Master PRNG seed.")

let decoys_arg =
  Arg.(
    value
    & opt int 500
    & info [ "decoys" ] ~docv:"D"
        ~doc:"Decoy edges inserted and later deleted (stream churn). 0 = insert-only.")

(* Telemetry flags, shared by every subcommand.  Off by default so the
   default output of every command (which the chaos and checkpoint CI
   smoke tests diff byte-for-byte) is unchanged. *)
let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Enable the telemetry registry (counters, spans, space ledger) and print a summary \
           plus a JSON report after the run.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Enable telemetry and write the combined JSON report (metrics + spans + space \
           ledger) to $(docv). Implies $(b,--metrics).")

let with_obs ~metrics ~metrics_out f =
  let on = metrics || metrics_out <> None in
  if on then Ds_obs.Export.enable ();
  let r = f () in
  if on then begin
    Fmt.pr "%a" Ds_obs.Export.pp_summary ();
    match metrics_out with
    | Some path ->
        Ds_obs.Export.write_report ~path;
        Fmt.pr "metrics: wrote %s@." path
    | None -> print_string (Ds_obs.Export.report_json ())
  end;
  r

let setup ~family ~n ~p ~seed ~decoys =
  let rng = Prng.create seed in
  let g = make_graph (Prng.split rng) ~family ~n ~p in
  let stream = make_stream (Prng.split rng) ~decoys g in
  let stats = Stream_stats.create (Prng.split rng) ~n:(Graph.n g) in
  Array.iter (Stream_stats.update stats) stream;
  Fmt.pr "stream: %a@." Stream_stats.pp_summary (Stream_stats.summary stats);
  (rng, g, stream)

let report_spanner ~name ~g ~spanner ~space_words ~bound =
  let s = Stretch.multiplicative ~base:g ~spanner in
  Fmt.pr "== %s ==@." name;
  Fmt.pr "graph: n=%d edges=%d@." (Graph.n g) (Graph.num_edges g);
  Fmt.pr "spanner: edges=%d (%.1f%% of input)@." (Graph.num_edges spanner)
    (100.0 *. float_of_int (Graph.num_edges spanner) /. float_of_int (max 1 (Graph.num_edges g)));
  Fmt.pr "stretch: max=%.2f mean=%.2f p95=%.2f (bound %.0f, violations %d)@." s.Stretch.max
    s.Stretch.mean s.Stretch.p95 bound s.Stretch.violations;
  Fmt.pr "space: %a (%d words)@." Ds_util.Space.pp_words space_words space_words;
  Fmt.pr "subgraph-of-input: %b@." (Graph.is_subgraph ~sub:spanner ~super:g)

(* Canonical digest of a spanner's edge set: FNV-1a-64 over the sorted edge
   list. Used by the checkpoint/resume smoke test to compare a resumed run
   to an uninterrupted one across processes. *)
let spanner_hash spanner =
  let edges = ref [] in
  Graph.iter_edges spanner (fun u v -> edges := (min u v, max u v) :: !edges);
  let buf = Buffer.create 1024 in
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "%d,%d;" u v))
    (List.sort compare !edges);
  Wire.fnv1a64 (Buffer.contents buf)

(* The same digest of a weighted sparsifier: FNV-1a-64 over the sorted
   "u-v:w;" list with each weight in exact hex-float form. *)
let sparsifier_hash h =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (u, v, w) -> Printf.bprintf buf "%d-%d:%h;" u v w)
    (List.sort compare (Weighted_graph.edges h));
  Wire.fnv1a64 (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Sub-commands                                                        *)
(* ------------------------------------------------------------------ *)

let report_two_pass ~k ~g (r : Two_pass_spanner.result) =
  report_spanner
    ~name:(Printf.sprintf "two-pass 2^%d-spanner (Theorem 1)" k)
    ~g ~spanner:r.Two_pass_spanner.spanner ~space_words:r.Two_pass_spanner.space_words
    ~bound:(float_of_int (1 lsl k));
  let d = r.Two_pass_spanner.diagnostics in
  Fmt.pr "diagnostics: terminals/level=%a p1-fails=%d table-fails=%d payload-fails=%d@."
    Fmt.(Dump.array int)
    d.Two_pass_spanner.terminals_per_level d.Two_pass_spanner.pass1_decode_failures
    d.Two_pass_spanner.table_decode_failures d.Two_pass_spanner.payload_decode_failures;
  Fmt.pr "spanner-hash: %016Lx@." (spanner_hash r.Two_pass_spanner.spanner)

let k_spanner_arg =
  Arg.(value & opt positive_int 3 & info [ "k" ] ~docv:"K" ~doc:"Stretch exponent (2^k).")

let spanner_cmd =
  let run family n p seed decoys k metrics metrics_out =
    with_obs ~metrics ~metrics_out @@ fun () ->
    let rng, g, stream = setup ~family ~n ~p ~seed ~decoys in
    let r =
      Two_pass_spanner.run (Prng.split rng) ~n:(Graph.n g)
        ~params:(Two_pass_spanner.default_params ~k)
        stream
    in
    report_two_pass ~k ~g r
  in
  Cmd.v
    (Cmd.info "spanner" ~doc:"Two-pass 2^k multiplicative spanner (Theorem 1).")
    Term.(
      const run $ family_arg $ n_arg $ p_arg $ seed_arg $ decoys_arg $ k_spanner_arg
      $ metrics_arg $ metrics_out_arg)

(* checkpoint/resume: the same workload is re-derived from the same CLI
   arguments (the whole pipeline is seed-deterministic), so the two
   processes agree on the stream and the PRNG chain; only the pass-1
   counters cross the process boundary, in the checkpoint file. *)

let file_arg =
  Arg.(
    value
    & opt string "dynospan.ckpt"
    & info [ "file" ] ~docv:"PATH" ~doc:"Checkpoint file path.")

let checkpoint_cmd =
  let run family n p seed decoys k file metrics metrics_out =
    with_obs ~metrics ~metrics_out @@ fun () ->
    let rng, g, stream = setup ~family ~n ~p ~seed ~decoys in
    let ck =
      Two_pass_spanner.checkpoint (Prng.split rng) ~n:(Graph.n g)
        ~params:(Two_pass_spanner.default_params ~k)
        stream
    in
    Durable.write_atomic ~path:file ck;
    Fmt.pr "checkpoint: pass 1 done, %d bytes -> %s@." (String.length ck) file;
    Fmt.pr "resume with: dynospan resume --graph %a -n %d -p %g --seed %d --decoys %d -k %d --file %s@."
      (Arg.conv_printer graph_conv) family n p seed decoys k file
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Run pass 1 of the two-pass spanner and serialise the pass boundary to a file. Resume \
          in a fresh process with the same arguments.")
    Term.(
      const run $ family_arg $ n_arg $ p_arg $ seed_arg $ decoys_arg $ k_spanner_arg $ file_arg
      $ metrics_arg $ metrics_out_arg)

(* A damaged checkpoint is an operational condition, not a crash: print one
   diagnostic line on stderr and exit 2, never an OCaml backtrace. *)
let die_bad_checkpoint file e =
  Fmt.epr "dynospan: bad checkpoint %s: %a@." file Two_pass_spanner.pp_checkpoint_error e;
  exit 2

let read_checkpoint_file file =
  try In_channel.with_open_bin file In_channel.input_all
  with Sys_error msg ->
    Fmt.epr "dynospan: cannot read checkpoint: %s@." msg;
    exit 2

let resume_cmd =
  let run family n p seed decoys k file recover metrics metrics_out =
    with_obs ~metrics ~metrics_out @@ fun () ->
    let rng, g, stream = setup ~family ~n ~p ~seed ~decoys in
    let params = Two_pass_spanner.default_params ~k in
    let checkpoint = read_checkpoint_file file in
    let r =
      if recover then begin
        let r, verdict =
          Two_pass_spanner.resume_or_restart (Prng.split rng) ~n:(Graph.n g) ~params
            ~checkpoint stream
        in
        (match verdict with
        | `Resumed -> Fmt.pr "resumed from %s@." file
        | `Recomputed e ->
            Fmt.pr "checkpoint rejected (%a); recomputed pass 1 from the stream@."
              Two_pass_spanner.pp_checkpoint_error e);
        r
      end
      else
        match
          Two_pass_spanner.resume_result (Prng.split rng) ~n:(Graph.n g) ~params ~checkpoint
            stream
        with
        | Ok r ->
            Fmt.pr "resumed from %s@." file;
            r
        | Error e -> die_bad_checkpoint file e
    in
    report_two_pass ~k ~g r
  in
  let recover_arg =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:
            "If the checkpoint is corrupt or mismatched, recompute pass 1 from the stream \
             instead of failing (the result is bit-identical to an uninterrupted run).")
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Finish a checkpointed two-pass spanner run: rebuild the seed-derived structure, load \
          the pass-1 counters, run pass 2. Must be invoked with the same workload arguments as \
          the checkpoint. The resulting spanner is bit-identical to an uninterrupted run. \
          Exits with code 2 on a corrupt, truncated or mismatched checkpoint (unless \
          $(b,--recover) is given).")
    Term.(
      const run $ family_arg $ n_arg $ p_arg $ seed_arg $ decoys_arg $ k_spanner_arg $ file_arg
      $ recover_arg $ metrics_arg $ metrics_out_arg)

let chaos_cmd =
  let run family n p seed decoys servers rate fault_seed no_heal metrics metrics_out =
    with_obs ~metrics ~metrics_out @@ fun () ->
    let rng, g, stream = setup ~family ~n ~p ~seed ~decoys in
    let plan =
      if rate <= 0.0 then Ds_fault.Fault_plan.none
      else Ds_fault.Fault_plan.random ~seed:fault_seed ~rate
    in
    let r =
      Ds_sim.Cluster_sim.run_supervised ~allow_reingest:(not no_heal) ~plan (Prng.split rng)
        ~n:(Graph.n g) ~servers stream
    in
    Fmt.pr "== supervised cluster run under deterministic fault injection ==@.";
    Fmt.pr "plan: fault-seed=%d rate=%.2f heal=%b servers=%d@." fault_seed rate (not no_heal)
      servers;
    Fmt.pr "%a" Ds_sim.Cluster_sim.pp_supervised_report r;
    if not r.Ds_sim.Cluster_sim.sup_forest_correct then exit 1
  in
  let servers_arg =
    Arg.(
      value & opt positive_int 4
      & info [ "servers" ] ~docv:"S" ~doc:"Number of simulated servers.")
  in
  let rate_arg =
    Arg.(
      value & opt probability 0.1
      & info [ "rate" ] ~docv:"R" ~doc:"Per-send-attempt fault probability (0 disables).")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ] ~docv:"FS"
          ~doc:"Seed of the fault plan; equal seeds replay identical faults.")
  in
  let no_heal_arg =
    Arg.(
      value & flag
      & info [ "no-heal" ]
          ~doc:
            "Forbid re-ingesting failed shards; the coordinator degrades to quorum decoding \
             and reports the certified failure probability instead.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the distributed sketching protocol through a seeded fault plan (crashes, drops, \
          corruption, truncation, duplicates, delays) with a self-healing coordinator. Fully \
          deterministic: the same seeds print the same report. Exits 1 if the decoded forest \
          is wrong.")
    Term.(
      const run $ family_arg $ n_arg $ p_arg $ seed_arg $ decoys_arg $ servers_arg $ rate_arg
      $ fault_seed_arg $ no_heal_arg $ metrics_arg $ metrics_out_arg)

let additive_cmd =
  let run family n p seed decoys d metrics metrics_out =
    with_obs ~metrics ~metrics_out @@ fun () ->
    let rng, g, stream = setup ~family ~n ~p ~seed ~decoys in
    let r =
      Additive_spanner.run (Prng.split rng) ~n:(Graph.n g)
        ~params:(Additive_spanner.default_params ~n:(Graph.n g) ~d)
        stream
    in
    let s = Stretch.additive ~base:g ~spanner:r.Additive_spanner.spanner () in
    Fmt.pr "== single-pass n/d-additive spanner (Theorem 3), d=%d ==@." d;
    Fmt.pr "graph: n=%d edges=%d@." (Graph.n g) (Graph.num_edges g);
    Fmt.pr "spanner: edges=%d@." (Graph.num_edges r.Additive_spanner.spanner);
    Fmt.pr "additive surplus: max=%.0f mean=%.2f (bound %.0f, violations %d)@." s.Stretch.max
      s.Stretch.mean
      (Additive_spanner.distortion_bound ~n:(Graph.n g) ~d)
      s.Stretch.violations;
    Fmt.pr "space: %a@." Ds_util.Space.pp_words r.Additive_spanner.space_words;
    let dg = r.Additive_spanner.diagnostics in
    Fmt.pr "diagnostics: centers=%d low=%d high=%d misclassified=%d orphan=%d@."
      dg.Additive_spanner.centers dg.Additive_spanner.low_degree dg.Additive_spanner.high_degree
      dg.Additive_spanner.degree_misclassified dg.Additive_spanner.orphan_high;
    Fmt.pr "spanner-hash: %016Lx@." (spanner_hash r.Additive_spanner.spanner)
  in
  let d_arg =
    Arg.(value & opt positive_int 4 & info [ "d" ] ~docv:"D" ~doc:"Space/distortion knob.")
  in
  Cmd.v
    (Cmd.info "additive" ~doc:"Single-pass n/d-additive spanner (Theorem 3).")
    Term.(
      const run $ family_arg $ n_arg $ p_arg $ seed_arg $ decoys_arg $ d_arg $ metrics_arg
      $ metrics_out_arg)

let sparsify_cmd =
  let run family n p seed decoys k eps rounds metrics metrics_out =
    with_obs ~metrics ~metrics_out @@ fun () ->
    let rng, g, stream = setup ~family ~n ~p ~seed ~decoys in
    let n = Graph.n g in
    let prm = Sparsify.default_params ~k ~eps ~n in
    let prm = if rounds = 0 then prm else { prm with Sparsify.z_rounds = rounds } in
    let r = Sparsify.run (Prng.split rng) ~n ~params:prm stream in
    let wg = Weighted_graph.of_graph g in
    let b = Ds_linalg.Spectral.pencil_bounds ~base:wg ~candidate:r.Sparsify.sparsifier in
    Fmt.pr "== two-pass spectral sparsifier (Corollary 2), eps=%.2f Z=%d ==@." eps
      r.Sparsify.rounds;
    Fmt.pr "graph: n=%d edges=%d@." n (Graph.num_edges g);
    Fmt.pr "sparsifier: edges=%d@." (Weighted_graph.num_edges r.Sparsify.sparsifier);
    Fmt.pr "pencil eigenvalue bounds: [%.3f, %.3f] (target [%.2f, %.2f])@."
      b.Ds_linalg.Spectral.lambda_min b.Ds_linalg.Spectral.lambda_max (1.0 -. eps) (1.0 +. eps);
    Fmt.pr "kernel leak: %.2g@." b.Ds_linalg.Spectral.kernel_leak;
    Fmt.pr "space: %a@." Ds_util.Space.pp_words r.Sparsify.space_words
  in
  let k_arg =
    Arg.(value & opt positive_int 2 & info [ "k" ] ~docv:"K" ~doc:"Oracle stretch exponent.")
  in
  let eps_arg =
    Arg.(
      value
      & opt (eps_conv Sparsify.validate_eps) 0.5
      & info [ "eps" ] ~docv:"EPS" ~doc:"Target accuracy.")
  in
  let rounds_arg =
    Arg.(value & opt int 0 & info [ "rounds" ] ~docv:"Z" ~doc:"SAMPLE rounds (0 = default).")
  in
  Cmd.v
    (Cmd.info "sparsify" ~doc:"Two-pass spectral sparsifier (Corollary 2).")
    Term.(
      const run $ family_arg $ n_arg $ p_arg $ seed_arg $ decoys_arg $ k_arg $ eps_arg
      $ rounds_arg $ metrics_arg $ metrics_out_arg)

let sparsify1p_cmd =
  let run family n p seed decoys eps metrics metrics_out =
    with_obs ~metrics ~metrics_out @@ fun () ->
    let rng, g, stream = setup ~family ~n ~p ~seed ~decoys in
    let n = Graph.n g in
    let prm = Ds_sparsify.Sparsify1p.default_params ~n ~eps in
    let r = Ds_sparsify.Sparsify1p.run (Prng.split rng) ~n ~params:prm ~eps stream in
    let wg = Weighted_graph.of_graph g in
    let b =
      Ds_linalg.Spectral.pencil_bounds ~base:wg
        ~candidate:r.Ds_sparsify.Sparsify1p.sparsifier
    in
    Fmt.pr "== single-pass spectral sparsifier (KLMMS chain), eps=%.2f ==@." eps;
    Fmt.pr "graph: n=%d edges=%d@." n (Graph.num_edges g);
    Fmt.pr "chain: steps=%d final-size=%d@." r.Ds_sparsify.Sparsify1p.chain_steps
      (Weighted_graph.num_edges r.Ds_sparsify.Sparsify1p.sparsifier);
    Fmt.pr "pencil eigenvalue bounds: [%.3f, %.3f] (target [%.2f, %.2f])@."
      b.Ds_linalg.Spectral.lambda_min b.Ds_linalg.Spectral.lambda_max (1.0 -. eps) (1.0 +. eps);
    Fmt.pr "kernel leak: %.2g@." b.Ds_linalg.Spectral.kernel_leak;
    Fmt.pr "space: %a (bound %a)@." Ds_util.Space.pp_words
      r.Ds_sparsify.Sparsify1p.space_words Ds_util.Space.pp_words
      (int_of_float (Ds_sparsify.Sparsify1p.space_bound ~n ~eps));
    Fmt.pr "sparsifier-hash: %016Lx@." (sparsifier_hash r.Ds_sparsify.Sparsify1p.sparsifier);
    (* The subcommand is its own acceptance gate: outside the (1 +- eps)
       window it fails loudly so the CI smoke test is a real check. *)
    if
      b.Ds_linalg.Spectral.lambda_min < 1.0 -. eps
      || b.Ds_linalg.Spectral.lambda_max > 1.0 +. eps
      || b.Ds_linalg.Spectral.kernel_leak > 1e-6
    then begin
      Fmt.pr "FAIL: bounds outside target window@.";
      exit 1
    end
  in
  let eps_arg =
    Arg.(
      value
      & opt (eps_conv Ds_sparsify.Sparsify1p.validate_eps) 0.5
      & info [ "eps" ] ~docv:"EPS" ~doc:"Target accuracy.")
  in
  Cmd.v
    (Cmd.info "sparsify1p"
       ~doc:
         "Single-pass (1±eps) spectral sparsifier (KLMMS chain over one linear sketch). Exits 1 \
          if the exact pencil bounds leave [1-eps, 1+eps].")
    Term.(
      const run $ family_arg $ n_arg $ p_arg $ seed_arg $ decoys_arg $ eps_arg $ metrics_arg
      $ metrics_out_arg)

let forest_cmd =
  let run family n p seed decoys metrics metrics_out =
    with_obs ~metrics ~metrics_out @@ fun () ->
    let rng, g, stream = setup ~family ~n ~p ~seed ~decoys in
    let n = Graph.n g in
    let t =
      Ds_agm.Agm_sketch.create (Prng.split rng) ~n ~params:(Ds_agm.Agm_sketch.default_params ~n)
    in
    Array.iter
      (fun u -> Ds_agm.Agm_sketch.update t ~u:u.Update.u ~v:u.Update.v ~delta:(Update.delta u))
      stream;
    let forest = Ds_agm.Agm_sketch.spanning_forest t in
    Fmt.pr "== AGM spanning forest (Theorem 10) ==@.";
    Fmt.pr "graph: n=%d edges=%d components=%d@." n (Graph.num_edges g) (Components.count g);
    Fmt.pr "forest: %d edges (expected %d)@." (List.length forest) (n - Components.count g);
    Fmt.pr "space: %a@." Ds_util.Space.pp_words (Ds_agm.Agm_sketch.space_in_words t);
    let all_real = List.for_all (fun (u, v) -> Graph.mem_edge g u v) forest in
    Fmt.pr "all forest edges real: %b@." all_real;
    Fmt.pr "forest-hash: %016Lx@." (spanner_hash (Graph.of_edges n forest))
  in
  Cmd.v
    (Cmd.info "forest" ~doc:"AGM spanning forest from linear sketches.")
    Term.(
      const run $ family_arg $ n_arg $ p_arg $ seed_arg $ decoys_arg $ metrics_arg
      $ metrics_out_arg)

let offline_cmd =
  let run family n p seed algo k metrics metrics_out =
    with_obs ~metrics ~metrics_out @@ fun () ->
    let rng = Prng.create seed in
    let g = make_graph (Prng.split rng) ~family ~n ~p in
    let spanner, name, bound =
      match algo with
      | `Basic ->
          ( (Basic_spanner.run (Prng.split rng) ~k g).Basic_spanner.spanner,
            Printf.sprintf "offline basic 2^%d-spanner (Section 3.1)" k,
            float_of_int (1 lsl k) )
      | `Bs ->
          ( Baswana_sen.run (Prng.split rng) ~k g,
            Printf.sprintf "Baswana-Sen (2k-1)-spanner, k=%d" k,
            float_of_int ((2 * k) - 1) )
      | `Greedy ->
          ( Greedy_spanner.run ~k g,
            Printf.sprintf "greedy (2k-1)-spanner, k=%d" k,
            float_of_int ((2 * k) - 1) )
    in
    report_spanner ~name ~g ~spanner ~space_words:0 ~bound
  in
  let algo_arg =
    Arg.(
      value
      & opt (enum [ ("basic", `Basic); ("bs", `Bs); ("greedy", `Greedy) ]) `Basic
      & info [ "algo" ] ~docv:"A" ~doc:"basic, bs, or greedy.")
  in
  let k_arg =
    Arg.(value & opt positive_int 3 & info [ "k" ] ~docv:"K" ~doc:"Stretch parameter.")
  in
  Cmd.v
    (Cmd.info "offline" ~doc:"Offline reference spanners (baselines).")
    Term.(
      const run $ family_arg $ n_arg $ p_arg $ seed_arg $ algo_arg $ k_arg $ metrics_arg
      $ metrics_out_arg)

(* Replay a seeded workload with span tracing on and export the spans.
   Replay, not attach: the whole pipeline is seed-deterministic, so
   re-running the same arguments reproduces the same work (up to wall
   clock) and tracing needs no always-on recording in the algorithms. *)
let trace_cmd =
  let run family n p seed decoys algo k out =
    Ds_obs.Export.enable ();
    let rng, g, stream = setup ~family ~n ~p ~seed ~decoys in
    let n = Graph.n g in
    (match algo with
    | `Spanner ->
        ignore
          (Two_pass_spanner.run (Prng.split rng) ~n
             ~params:(Two_pass_spanner.default_params ~k)
             stream)
    | `Additive ->
        ignore
          (Additive_spanner.run (Prng.split rng) ~n
             ~params:(Additive_spanner.default_params ~n ~d:k)
             stream)
    | `Cluster ->
        ignore
          (Ds_sim.Cluster_sim.run (Prng.split rng) ~n ~servers:4 stream)
    | `Supervised ->
        ignore
          (Ds_sim.Cluster_sim.run_supervised ~plan:Ds_fault.Fault_plan.none (Prng.split rng)
             ~n ~servers:4 stream));
    let jsonl = Ds_obs.Trace.to_jsonl () in
    match out with
    | Some path ->
        Durable.write_atomic ~path jsonl;
        Fmt.pr "trace: %d spans -> %s@." (List.length (Ds_obs.Trace.spans ())) path
    | None -> print_string jsonl
  in
  let algo_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("spanner", `Spanner);
               ("additive", `Additive);
               ("cluster", `Cluster);
               ("supervised", `Supervised);
             ])
          `Spanner
      & info [ "algo" ] ~docv:"A"
          ~doc:"Workload to replay: spanner, additive, cluster, or supervised.")
  in
  let k_arg =
    Arg.(
      value & opt positive_int 3
      & info [ "k" ] ~docv:"K" ~doc:"Stretch exponent (spanner) or d (additive).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write span JSON-lines to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a seeded workload with span tracing enabled and export the recorded spans as \
          JSON-lines (one span object per line, monotonic-clock timestamps).")
    Term.(
      const run $ family_arg $ n_arg $ p_arg $ seed_arg $ decoys_arg $ algo_arg $ k_arg
      $ out_arg)

(* Offline analysis of trace files: rebuild the span forest, find the
   critical path of the longest trace, roll up per-phase time, and
   export viewer formats.  Works on one file or several concatenated
   (multi-domain/multi-process) files — causal ids are globally
   unique, so the spans just pool. *)
let trace_analyze_cmd =
  let run files perfetto folded =
    let module T = Ds_obs.Trace_tree in
    let spans =
      List.concat_map
        (fun path ->
          try T.parse_jsonl (In_channel.with_open_bin path In_channel.input_all)
          with
          | Sys_error msg ->
              Fmt.epr "dynospan: cannot read trace: %s@." msg;
              exit 2
          | Failure msg ->
              Fmt.epr "dynospan: bad trace %s: %s@." path msg;
              exit 2)
        files
    in
    if spans = [] then begin
      Fmt.epr "dynospan: no spans in %s@." (String.concat ", " files);
      exit 2
    end;
    let forest = T.of_spans spans in
    Fmt.pr "== trace analysis: %d spans from %d file(s) ==@." forest.T.node_count
      (List.length files);
    Fmt.pr "forest: %d roots, %d orphans, %d cycles broken@."
      (List.length forest.T.roots) forest.T.orphans forest.T.cycles_broken;
    let root = Option.get (T.main_root forest) in
    let root_ns = root.T.span.Ds_obs.Trace.dur_ns in
    let ms ns = Int64.to_float ns /. 1e6 in
    let pct ns =
      if root_ns = 0L then 0.0 else 100.0 *. Int64.to_float ns /. Int64.to_float root_ns
    in
    Fmt.pr "@.critical path of %S (%.3f ms):@." root.T.span.Ds_obs.Trace.name (ms root_ns);
    let path = T.critical_path root in
    List.iter
      (fun { T.p_node; p_ns } ->
        Fmt.pr "  %-28s %10.3f ms  %5.1f%%  (domain %d, pid %d)@."
          p_node.T.span.Ds_obs.Trace.name (ms p_ns) (pct p_ns)
          p_node.T.span.Ds_obs.Trace.domain p_node.T.span.Ds_obs.Trace.pid)
      path;
    let total = T.path_total path in
    Fmt.pr "critical-path total: %.3f ms = %.2f%% of root span@." (ms total) (pct total);
    Fmt.pr "@.per-phase rollup (self time, descending):@.";
    Fmt.pr "  %-28s %6s %12s %12s %12s@." "span" "count" "total ms" "self ms" "max ms";
    List.iter
      (fun r ->
        Fmt.pr "  %-28s %6d %12.3f %12.3f %12.3f@." r.T.r_name r.T.r_count (ms r.T.r_total_ns)
          (ms r.T.r_self_ns) (ms r.T.r_max_ns))
      (T.rollups forest);
    Durable.write_atomic ~path:perfetto (T.to_chrome_json spans);
    Fmt.pr "@.perfetto: %d events -> %s (open in ui.perfetto.dev or chrome://tracing)@."
      forest.T.node_count perfetto;
    match folded with
    | Some path ->
        Durable.write_atomic ~path (T.to_folded forest);
        Fmt.pr "folded stacks -> %s (flamegraph.pl / speedscope)@." path
    | None -> ()
  in
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"TRACE.jsonl"
          ~doc:
            "Trace files written by $(b,dynospan trace --out) (or $(b,--metrics-out) span \
             JSONL). Several files — e.g. one per process — are merged before analysis.")
  in
  let perfetto_arg =
    Arg.(
      value
      & opt string "trace.perfetto.json"
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:"Write Chrome trace-event JSON (Perfetto/chrome://tracing) to $(docv).")
  in
  let folded_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:"Also write folded-stack lines (flamegraph.pl / speedscope) to $(docv).")
  in
  Cmd.v
    (Cmd.info "trace-analyze"
       ~doc:
         "Reconstruct the span forest from trace JSONL files, print the critical path of the \
          longest trace and a per-phase self-time rollup, and write a Perfetto-loadable Chrome \
          trace-event file. The critical-path segments partition the root span exactly, so \
          their total always equals the root duration — the printed percentage is a \
          self-check.")
    Term.(const run $ files_arg $ perfetto_arg $ folded_arg)

(* ------------------------------------------------------------------ *)
(* The serving layer: serve / loadgen / chaos-serve                     *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket path.")

let dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR" ~doc:"Checkpoint store directory (created if missing).")

let serve_cmd =
  let run socket dir admin quota queue_bound drain checkpoint_every retention tenant_gauges
      no_obs no_flight metrics metrics_out =
    with_obs ~metrics ~metrics_out @@ fun () ->
    (* The service is the one command where telemetry defaults ON: the
       STAT rollup and the admin plane are only useful when the quantile
       sketches are accumulating.  [--no-obs] restores the zero-overhead
       path for byte-identical baselines. *)
    if not no_obs then Ds_obs.Export.enable ();
    let config =
      {
        (Ds_serve.Server.default_config ~dir) with
        Ds_serve.Server.quota_words = quota;
        queue_bound;
        drain_per_tick = drain;
        checkpoint_every;
        retention;
        tenant_gauges;
        flight = not no_flight;
      }
    in
    let server = Ds_serve.Server.create config in
    Ds_serve.Server.run_unix server ~socket_path:socket ?admin_path:admin ();
    Fmt.pr "serve: stopped; %d event(s) logged@."
      (List.length (Ds_serve.Server.events server))
  in
  let quota_arg =
    Arg.(
      value & opt int 4_000_000
      & info [ "quota-words" ] ~docv:"W" ~doc:"Per-tenant sketch-space budget in words.")
  in
  let queue_arg =
    Arg.(
      value & opt int 256
      & info [ "queue-bound" ] ~docv:"Q"
          ~doc:"Ingest queue depth; frames beyond it get an Overloaded NACK.")
  in
  let drain_arg =
    Arg.(
      value & opt int 128
      & info [ "drain-per-tick" ] ~docv:"D" ~doc:"Frames applied per event-loop tick.")
  in
  let ck_arg =
    Arg.(
      value & opt int 64
      & info [ "checkpoint-every" ] ~docv:"K"
          ~doc:"Applied frames between durable generations.")
  in
  let retention_arg =
    Arg.(
      value & opt int 2
      & info [ "retention" ] ~docv:"G" ~doc:"Durable generations kept per tenant.")
  in
  let admin_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "admin-socket" ] ~docv:"PATH"
          ~doc:
            "Open a second Unix listener inside the same event loop speaking minimal HTTP: \
             GET /stats (serve_stats/v1 JSON), /metrics (Prometheus), /json (full ds_obs/v1 \
             report), /healthz.")
  in
  let gauges_arg =
    Arg.(
      value & opt int 8
      & info [ "tenant-gauges" ] ~docv:"K"
          ~doc:
            "Heaviest tenants kept as per-tenant word gauges in the metric registry; the \
             rest stay in the bounded STAT rollup only.")
  in
  let no_obs_arg =
    Arg.(
      value & flag
      & info [ "no-obs" ]
          ~doc:
            "Disable the telemetry registry (quantiles, counters, spans). Stats served over \
             STAT and the admin plane then report structure only, with empty latency \
             summaries.")
  in
  let no_flight_arg =
    Arg.(
      value & flag
      & info [ "no-flight" ]
          ~doc:
            "Disarm the crash flight recorder (no flight-latest.json dumps on overload, \
             quarantine, checkpoint or shutdown).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the multi-tenant sketch service on a Unix domain socket: bounded ingest queue \
          with typed Overloaded/Quota NACKs, periodic write-tmp/fsync/rename checkpoints, and \
          kill -9-safe recovery that quarantines torn generations and replays the undurable \
          suffix by linearity. SIGTERM exits gracefully (drain + checkpoint). Telemetry is on \
          by default ($(b,--no-obs) disables); $(b,--admin-socket) adds an in-loop HTTP scrape \
          plane, and the flight recorder dumps recent spans and stats to flight-latest.json on \
          overload, quarantine and shutdown.")
    Term.(
      const run $ socket_arg $ dir_arg $ admin_arg $ quota_arg $ queue_arg $ drain_arg
      $ ck_arg $ retention_arg $ gauges_arg $ no_obs_arg $ no_flight_arg $ metrics_arg
      $ metrics_out_arg)

let loadgen_cmd =
  let run socket seed tenants streams updates n batch ledger verify delay_unit metrics
      metrics_out =
    with_obs ~metrics ~metrics_out @@ fun () ->
    let plan = Ds_serve.Loadgen.make ~seed ~tenants ~streams_per_tenant:streams ~updates ~n ~batch () in
    let client = Ds_serve.Client.connect ~socket_path:socket ~delay_unit () in
    if verify then begin
      let lines =
        match ledger with
        | None -> []
        | Some path when Sys.file_exists path ->
            let ic = open_in path in
            let rec go acc =
              match input_line ic with
              | line -> go (line :: acc)
              | exception End_of_file ->
                  close_in ic;
                  List.rev acc
            in
            go []
        | Some _ -> []
      in
      let checked, mismatches = Ds_serve.Loadgen.verify client plan ~ledger_lines:lines in
      Fmt.pr "loadgen verify: %d stream(s) checked against the acked ledger@." checked;
      List.iter (fun m -> Fmt.pr "MISMATCH %s@." m) mismatches;
      if mismatches <> [] then exit 1;
      Fmt.pr "loadgen verify: every acked update survived, bit-identically@."
    end
    else begin
      let oc = Option.map open_out ledger in
      let o = Ds_serve.Loadgen.run client plan ~ledger:oc in
      Option.iter close_out oc;
      Fmt.pr
        "loadgen: acked %d frame(s), failed %d, retries %d, reconnects %d, backoff %.3fs@."
        o.Ds_serve.Loadgen.o_acked_frames o.Ds_serve.Loadgen.o_failed_frames
        o.Ds_serve.Loadgen.o_retries o.Ds_serve.Loadgen.o_reconnects
        o.Ds_serve.Loadgen.o_backoff;
      let lat = o.Ds_serve.Loadgen.o_lat in
      if lat.Ds_obs.Quantile.s_count > 0 then
        Fmt.pr "loadgen: rpc latency (ms) p50=%.2f p90=%.2f p99=%.2f p999=%.2f over %d ack(s)@."
          (lat.Ds_obs.Quantile.s_p50 /. 1e6)
          (lat.Ds_obs.Quantile.s_p90 /. 1e6)
          (lat.Ds_obs.Quantile.s_p99 /. 1e6)
          (lat.Ds_obs.Quantile.s_p999 /. 1e6)
          lat.Ds_obs.Quantile.s_count;
      if o.Ds_serve.Loadgen.o_failed_frames > 0 then exit 1
    end;
    Ds_serve.Client.close client
  in
  let tenants_arg =
    Arg.(value & opt int 3 & info [ "tenants" ] ~docv:"T" ~doc:"Number of tenants.")
  in
  let streams_arg =
    Arg.(value & opt int 4 & info [ "streams" ] ~docv:"S" ~doc:"Streams per tenant.")
  in
  let updates_arg =
    Arg.(
      value & opt int 2000
      & info [ "updates" ] ~docv:"U"
          ~doc:"Total update budget, split across streams by a Zipf profile.")
  in
  let ln_arg =
    Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Sketch dimension per stream.")
  in
  let batch_arg =
    Arg.(value & opt int 8 & info [ "batch" ] ~docv:"B" ~doc:"Updates per ingest frame.")
  in
  let ledger_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Acked-frame ledger: one line per ack (tenant, stream, frames, mirror hash). With \
             $(b,--verify), read instead of written.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Rebuild the seeded mirror sketches, query the server, and demand bit-identical \
             envelopes at the ledger's acked watermarks. Exits 1 on any mismatch.")
  in
  let delay_unit_arg =
    Arg.(
      value & opt float 0.02
      & info [ "delay-unit" ] ~docv:"SEC"
          ~doc:
            "Seconds per backoff unit of the client's capped retry envelope. Raise it to \
             survive longer server restarts (e.g. a kill -9 + recovery mid-load).")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Seeded multi-tenant load generator for $(b,dynospan serve): Zipf-profiled stream \
          sizes, batched LSK1 ingest frames, client-side retry with capped jittered backoff, \
          and an acked-frame ledger that $(b,--verify) later checks bit-for-bit — the whole \
          workload is a pure function of the seed.")
    Term.(
      const run $ socket_arg $ seed_arg $ tenants_arg $ streams_arg $ updates_arg $ ln_arg
      $ batch_arg $ ledger_arg $ verify_arg $ delay_unit_arg $ metrics_arg $ metrics_out_arg)

let serve_stats_cmd =
  let open Ds_util in
  let jnull = Json.Null in
  let mem k j = Option.value ~default:jnull (Json.member k j) in
  let num k j =
    match Option.bind (Json.member k j) Json.to_float with Some v -> v | None -> 0.0
  in
  let int_ k j = int_of_float (num k j) in
  let int64_ k j = Option.value ~default:0L (Option.bind (Json.member k j) Json.to_int64) in
  let bool_ k j = match Json.member k j with Some (Json.Bool b) -> b | _ -> false in
  let str_ k j =
    match Option.bind (Json.member k j) Json.to_str with Some s -> s | None -> "?"
  in
  let pp_summary ppf j =
    Fmt.pf ppf "n=%d p50=%.0f p90=%.0f p99=%.0f p999=%.0f" (int_ "count" j) (num "p50" j)
      (num "p90" j) (num "p99" j) (num "p999" j)
  in
  let pp_nacks ppf j =
    match Json.to_obj j with
    | Some ((_ :: _) as kvs) ->
        Fmt.pf ppf " nacks:";
        List.iter
          (fun (k, v) -> Fmt.pf ppf " %s=%d" k (Option.value ~default:0 (Json.to_int v)))
          kvs
    | _ -> ()
  in
  let print_stats doc =
    let queue = mem "queue" doc and totals = mem "totals" doc and flight = mem "flight" doc in
    Fmt.pr "serve stats (%s): observability=%s@." (str_ "schema" doc)
      (if bool_ "observability" doc then "on" else "off");
    Fmt.pr "queue: depth %d / bound %d%s@." (int_ "depth" queue) (int_ "bound" queue)
      (if bool_ "overloaded" queue then " OVERLOADED" else "");
    Fmt.pr
      "totals: %d tenant(s), %d stream(s), %d applied frame(s), %d words (quota %d/tenant), \
       checkpoint lag %d@."
      (int_ "tenants" totals) (int_ "streams" totals) (int_ "applied_frames" totals)
      (int_ "words" totals) (int_ "quota_words" totals) (int_ "checkpoint_lag" totals);
    Fmt.pr "ingest latency (ns): %a%a@." pp_summary (mem "ingest" doc) pp_nacks
      (mem "nacks" doc);
    Fmt.pr "flight: %s, %d dump(s)@."
      (if bool_ "armed" flight then "armed" else "disarmed")
      (int_ "dumps" flight);
    (match Json.to_obj (mem "tenants" doc) with
    | Some ((_ :: _) as tenants) ->
        Fmt.pr "tenants (heaviest first):@.";
        List.iter
          (fun (name, tj) ->
            Fmt.pr "  %-12s %d/%d words, %d stream(s), gen %d, lag %d, %a%a@." name
              (int_ "words" tj) (int_ "quota_words" tj) (int_ "streams" tj)
              (int_ "generation" tj) (int_ "checkpoint_lag" tj) pp_summary (mem "ingest" tj)
              pp_nacks (mem "nacks" tj))
          tenants
    | _ -> ());
    let om = mem "tenants_omitted" doc in
    if int_ "count" om > 0 then
      Fmt.pr "(+%d tenant(s) omitted holding %d words; aggregate in overflow)@."
        (int_ "count" om) (int_ "words" om)
  in
  let run socket dir post_mortem json =
    if post_mortem then begin
      let dir =
        match dir with
        | Some d -> d
        | None ->
            Fmt.epr "serve-stats: --post-mortem needs --dir DIR@.";
            exit 2
      in
      match Ds_serve.Flight.read ~dir with
      | Error m ->
          Fmt.epr "serve-stats: no readable flight dump: %s@." m;
          exit 1
      | Ok doc ->
          if json then print_string (Json.to_string doc ^ "\n")
          else begin
            Fmt.pr "flight dump %s: seq=%d reason=%s pid=%d wall=%.3f@." (str_ "schema" doc)
              (int_ "seq" doc) (str_ "reason" doc) (int_ "pid" doc) (num "wall_s" doc);
            let spans =
              Option.value ~default:[] (Option.bind (Json.member "spans" doc) Json.to_list)
            in
            Fmt.pr "spans: %d in dump (%d recorded, %d dropped since boot)@."
              (List.length spans) (int_ "spans_recorded" doc) (int_ "spans_dropped" doc);
            let tail = List.filteri (fun i _ -> i >= List.length spans - 5) spans in
            List.iter
              (fun sp ->
                Fmt.pr "  %-24s dur=%.0fns trace=%Lx@." (str_ "name" sp) (num "dur_ns" sp)
                  (int64_ "trace_id" sp))
              tail;
            (match Option.bind (Json.member "events" doc) Json.to_list with
            | Some ((_ :: _) as events) ->
                Fmt.pr "events (newest first):@.";
                List.iter
                  (fun e ->
                    match Json.to_str e with Some s -> Fmt.pr "  %s@." s | None -> ())
                  events
            | _ -> ());
            print_stats (mem "stats" doc)
          end
    end
    else begin
      let socket =
        match socket with
        | Some s -> s
        | None ->
            Fmt.epr "serve-stats: need --socket PATH (or --post-mortem --dir DIR)@.";
            exit 2
      in
      let client = Ds_serve.Client.connect ~socket_path:socket () in
      let r = Ds_serve.Client.stat client in
      Ds_serve.Client.close client;
      match r with
      | Error m ->
          Fmt.epr "serve-stats: %s@." m;
          exit 1
      | Ok s ->
          if json then print_string (s ^ "\n")
          else (
            match Json.parse s with
            | Ok doc -> print_stats doc
            | Error m ->
                Fmt.epr "serve-stats: server sent unparseable stats: %s@." m;
                exit 1)
    end
  in
  let socket_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket of a running server.")
  in
  let dir_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Checkpoint store to read the flight dump from (with $(b,--post-mortem)).")
  in
  let post_mortem_arg =
    Arg.(
      value & flag
      & info [ "post-mortem" ]
          ~doc:
            "Read $(b,flight-latest.json) from $(b,--dir) instead of asking a live server — \
             what the flight recorder persisted before a crash or kill -9.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the raw JSON document instead of the summary view.")
  in
  Cmd.v
    (Cmd.info "serve-stats"
       ~doc:
         "Live service stats: ask a running $(b,dynospan serve) for its serve_stats/v1 rollup \
          over SRV1 (queue depth and backpressure state, NACK taxonomy, ingest latency \
          p50/p99/p999, per-tenant space-vs-quota and watermarks), or with $(b,--post-mortem) \
          read the crash flight recorder's last dump from the checkpoint store.")
    Term.(const run $ socket_opt_arg $ dir_opt_arg $ post_mortem_arg $ json_arg)

let chaos_serve_cmd =
  let run dir seed fault_seed rate crash_every tear =
    let plan =
      if rate <= 0.0 then Ds_fault.Fault_plan.none
      else Ds_fault.Fault_plan.random ~seed:fault_seed ~rate
    in
    let workload =
      Ds_serve.Loadgen.make ~seed ~tenants:2 ~streams_per_tenant:3 ~updates:600 ~n:64
        ~batch:4 ()
    in
    let r =
      Ds_sim.Serve_sim.run ~crash_every ~tear_on_crash:tear ~checkpoint_every:32 ~plan ~dir
        workload
    in
    Fmt.pr "== serve layer under connection faults and seeded kill -9 ==@.";
    Fmt.pr "plan: seed=%d fault-seed=%d rate=%.2f crash-every=%d tear=%b@." seed fault_seed
      rate crash_every tear;
    Fmt.pr "%a@." Ds_sim.Serve_sim.pp_report r;
    if not r.Ds_sim.Serve_sim.sv_final_match then exit 1
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ] ~docv:"FS"
          ~doc:"Seed of the connection-fault plan; equal seeds replay identical faults.")
  in
  let rate_arg =
    Arg.(
      value & opt probability 0.1
      & info [ "rate" ] ~docv:"R" ~doc:"Per-send-attempt connection-fault probability.")
  in
  let crash_arg =
    Arg.(
      value & opt int 40
      & info [ "crash-every" ] ~docv:"K"
          ~doc:"kill -9 the simulated server after every K acks (0 disables).")
  in
  let tear_arg =
    Arg.(
      value & flag
      & info [ "tear" ]
          ~doc:
            "Truncate the newest durable generation at a seeded offset before each recovery, \
             forcing the quarantine-and-fall-back path.")
  in
  Cmd.v
    (Cmd.info "chaos-serve"
       ~doc:
         "Deterministic chaos run of the serving layer: seeded workload through connection \
          faults (partial frame + stall, mid-frame disconnect, reordered duplicates) with \
          seeded kill -9 and optional torn generations. Fully replayable: equal seeds print \
          identical reports. Exits 1 unless every stream's final envelope is bit-identical to \
          the seeded mirror.")
    Term.(
      const run $ dir_arg $ seed_arg $ fault_seed_arg $ rate_arg $ crash_arg $ tear_arg)

let () =
  let doc = "spanners and sparsifiers in dynamic streams (Kapralov-Woodruff, PODC 2014)" in
  let info = Cmd.info "dynospan" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            spanner_cmd;
            checkpoint_cmd;
            resume_cmd;
            chaos_cmd;
            trace_cmd;
            trace_analyze_cmd;
            additive_cmd;
            sparsify_cmd;
            sparsify1p_cmd;
            forest_cmd;
            offline_cmd;
            serve_cmd;
            serve_stats_cmd;
            loadgen_cmd;
            chaos_serve_cmd;
          ]))
