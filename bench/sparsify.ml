(* Single-pass sparsifier bench.

     dune exec bench/sparsify.exe [-- OUTPUT.json]

   Runs the KLMMS single-pass sparsifier over a fixed seeded suite (two
   graph families x eps in {0.5, 0.25}), verifies every run against the
   exact pencil bounds, and writes the measurements as machine-readable
   JSON (default ./BENCH_sparsify.json, schema bench_sparsify/v2) so
   bench/guard.exe can gate later PRs:

   - decode wall time (the chain: JL resistance solves + candidate sweep)
     per run, and the suite maximum;
   - sketch state in words (deterministic — a params change shows up as an
     exact delta against the committed baseline);
   - pencil_ok: 1 iff every run's exact generalized-eigenvalue bounds land
     inside [1 - eps, 1 + eps] with clean kernel.

   Ceilings live in the guard, not here: this file records what the
   machine did, the guard decides what is acceptable. *)

open Ds_util
open Ds_graph
open Ds_stream
module S1 = Ds_sparsify.Sparsify1p

let master_seed = 20140721

type row = {
  label : string;
  eps : float;
  edges_in : int;
  edges_out : int;
  space_words : int;
  ingest_ms : float;
  decode_ms : float;
  lambda_min : float;
  lambda_max : float;
  ok : bool;
}

let run_case ~label ~eps g =
  let n = Graph.n g in
  let rng = Prng.create (master_seed + Hashtbl.hash (label, eps)) in
  let stream = Stream_gen.with_churn (Prng.split rng) ~decoys:500 g in
  let prm = S1.default_params ~n ~eps in
  let t = S1.create (Prng.split rng) ~n ~params:prm in
  let t0 = Ds_obs.Clock.now_ns () in
  Array.iter
    (fun (u : Update.t) -> S1.update t ~u:u.Update.u ~v:u.Update.v ~delta:(Update.delta u))
    stream;
  let ingest_s = Bench_kit.seconds_since t0 in
  let t1 = Ds_obs.Clock.now_ns () in
  let r = S1.decode (Prng.split rng) t ~eps in
  let decode_s = Bench_kit.seconds_since t1 in
  let b =
    Ds_linalg.Spectral.pencil_bounds ~base:(Weighted_graph.of_graph g)
      ~candidate:r.S1.sparsifier
  in
  {
    label;
    eps;
    edges_in = Graph.num_edges g;
    edges_out = Weighted_graph.num_edges r.S1.sparsifier;
    space_words = r.S1.space_words;
    ingest_ms = 1000.0 *. ingest_s;
    decode_ms = 1000.0 *. decode_s;
    lambda_min = b.Ds_linalg.Spectral.lambda_min;
    lambda_max = b.Ds_linalg.Spectral.lambda_max;
    ok =
      b.Ds_linalg.Spectral.lambda_min >= 1.0 -. eps
      && b.Ds_linalg.Spectral.lambda_max <= 1.0 +. eps
      && b.Ds_linalg.Spectral.kernel_leak < 1e-6;
  }

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_sparsify.json" in
  let n = 64 in
  let gnp = Gen.connected_gnp (Prng.create (master_seed + 20)) ~n ~p:0.25 in
  let barbell = Gen.barbell (n / 2) in
  let rows =
    List.concat_map
      (fun eps ->
        [ run_case ~label:"gnp" ~eps gnp; run_case ~label:"barbell" ~eps barbell ])
      [ 0.5; 0.25 ]
  in
  List.iter
    (fun r ->
      Printf.printf
        "sparsify bench: %-8s eps=%.2f  |E|=%-5d |H|=%-5d space=%-8d ingest=%6.1fms \
         decode=%7.1fms pencil=[%.3f, %.3f] %s\n"
        r.label r.eps r.edges_in r.edges_out r.space_words r.ingest_ms r.decode_ms
        r.lambda_min r.lambda_max
        (if r.ok then "ok" else "OUTSIDE WINDOW"))
    rows;
  let decode_ms_max = List.fold_left (fun a r -> max a r.decode_ms) 0.0 rows in
  let space_words_max = List.fold_left (fun a r -> max a r.space_words) 0 rows in
  let all_ok = List.for_all (fun r -> r.ok) rows in
  let open Json in
  let flag b = int (if b then 1 else 0) in
  Bench_kit.write ~path:out
    (Bench_kit.document ~schema:"bench_sparsify/v2"
       [
         ("sparsify_decode_ms_max", Bench_kit.fixed 1 decode_ms_max);
         ("sparsify_space_words_max", int space_words_max);
         ("sparsify_pencil_ok", flag all_ok);
         ( "runs",
           Arr
             (List.map
                (fun r ->
                  Obj
                    [
                      ("graph", Str r.label);
                      ("eps", Bench_kit.fixed 2 r.eps);
                      ("edges_in", int r.edges_in);
                      ("edges_out", int r.edges_out);
                      ("space_words", int r.space_words);
                      ("ingest_ms", Bench_kit.fixed 1 r.ingest_ms);
                      ("decode_ms", Bench_kit.fixed 1 r.decode_ms);
                      ("lambda_min", Bench_kit.fixed 4 r.lambda_min);
                      ("lambda_max", Bench_kit.fixed 4 r.lambda_max);
                      ("ok", flag r.ok);
                    ])
                rows) );
       ]);
  if not all_ok then exit 1
