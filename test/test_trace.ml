(* Causal-trace well-formedness: QCheck properties over span-forest
   reconstruction (acyclic, resolvable parents, unique ids — including
   under multi-domain recording through the pool) and over the LSK1
   trace-context extension (survives the faulted channel, duplicates and
   delays never collide span ids, extension-free envelopes still decode:
   wire-format backward compatibility in both directions). *)

open Ds_util
open Ds_sketch

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module T = Ds_obs.Trace
module TT = Ds_obs.Trace_tree
module LS = Linear_sketch
module P = LS.Packed
module FP = Ds_fault.Fault_plan

let with_obs f =
  Ds_obs.Export.enable ();
  Ds_obs.Export.reset ();
  Fun.protect
    ~finally:(fun () ->
      Ds_obs.Export.disable ();
      Ds_obs.Export.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Forest well-formedness                                              *)
(* ------------------------------------------------------------------ *)

(* Every reconstructed forest must be a forest: each node reachable from
   exactly one root, ids unique, every non-root's parent resolvable and
   in the same trace.  [spans] must be a complete recording (no ring
   drops), which the callers guarantee by sizing the ring. *)
let assert_well_formed spans =
  let forest = TT.of_spans spans in
  check_int "nothing dropped" 0 (T.dropped ());
  check_int "no orphans" 0 forest.TT.orphans;
  check_int "no cycles" 0 forest.TT.cycles_broken;
  let ids = Hashtbl.create 64 in
  List.iter
    (fun (sp : T.span) ->
      check_bool "span id never 0" true (sp.T.span_id <> 0L);
      check_bool "span ids unique" false (Hashtbl.mem ids sp.T.span_id);
      Hashtbl.replace ids sp.T.span_id ())
    spans;
  (* Acyclic + every node reachable exactly once from the roots. *)
  let visited = Hashtbl.create 64 in
  TT.iter_forest
    (fun n ->
      let id = n.TT.span.T.span_id in
      check_bool "each node visited once (acyclic)" false (Hashtbl.mem visited id);
      Hashtbl.replace visited id ();
      (match n.TT.parent with
      | Some p ->
          check_bool "parent pointer matches parent_id" true
            (p.TT.span.T.span_id = n.TT.span.T.parent_id);
          check_bool "child inherits trace id" true (p.TT.span.T.trace_id = n.TT.span.T.trace_id)
      | None -> ());
      List.iter
        (fun c ->
          check_bool "child points back" true
            (match c.TT.parent with Some p -> p == n | None -> false))
        n.TT.children)
    forest;
  check_int "every node reachable from a root" forest.TT.node_count (Hashtbl.length visited);
  forest

(* A deterministic nesting program driven by a seed: recursive spans with
   data-dependent depth/fanout, a batch of pool tasks recording on worker
   domains (parented under the submitting span via the carried context),
   and a few explicit [record]s. *)
let run_program seed =
  let rng = Prng.create (0x7ace + seed) in
  let rec nest depth =
    T.with_span (Printf.sprintf "n%d" depth) (fun () ->
        if depth > 0 then
          for _ = 1 to 1 + Prng.int rng 2 do
            nest (depth - 1)
          done
        else T.record "leaf" ~start_ns:(Int64.of_int (Prng.int rng 1000)) ~dur_ns:1L)
  in
  T.with_span "prog.root" (fun () ->
      nest (1 + Prng.int rng 3);
      Ds_par.Pool.with_pool ~domains:2 (fun pool ->
          ignore
            (Ds_par.Pool.run pool
               (List.init
                  (2 + Prng.int rng 4)
                  (fun i () -> T.with_span (Printf.sprintf "task%d" i) (fun () -> nest 1))))))

let prop_forest_well_formed =
  QCheck.Test.make ~name:"multi-domain span forest is acyclic with resolvable parents"
    ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      with_obs (fun () ->
          T.reset ~capacity:4096 ();
          run_program seed;
          let spans = T.spans () in
          let forest = assert_well_formed spans in
          (* The whole program ran under one root: a single trace id. *)
          let root_traces =
            List.sort_uniq Int64.compare (List.map (fun (sp : T.span) -> sp.T.trace_id) spans)
          in
          check_int "one trace id" 1 (List.length root_traces);
          check_int "one root" 1 (List.length forest.TT.roots);
          true))

let prop_jsonl_round_trip =
  QCheck.Test.make ~name:"JSONL round-trip preserves spans and structure" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      with_obs (fun () ->
          T.reset ~capacity:4096 ();
          run_program seed;
          let spans = T.spans () in
          let parsed = TT.parse_jsonl (T.to_jsonl ()) in
          check_int "same span count" (List.length spans) (List.length parsed);
          List.iter2
            (fun (a : T.span) (b : T.span) ->
              check_bool "span survives JSONL" true
                (a.T.name = b.T.name && a.T.start_ns = b.T.start_ns && a.T.dur_ns = b.T.dur_ns
               && a.T.domain = b.T.domain && a.T.pid = b.T.pid && a.T.trace_id = b.T.trace_id
               && a.T.span_id = b.T.span_id && a.T.parent_id = b.T.parent_id))
            spans parsed;
          ignore (assert_well_formed parsed);
          true))

(* Span names are arbitrary strings: quotes, backslashes and newline
   bytes must come back from the JSONL byte for byte (one object per
   line, so an unescaped newline would split a span in two). *)
let test_jsonl_names_verbatim () =
  with_obs (fun () ->
      T.reset ~capacity:64 ();
      let names = [ "say \"hi\""; "a\\b"; "line\nbreak"; "\\\"\n\t\x01 mixed"; "plain.name" ] in
      List.iteri (fun i name -> T.record name ~start_ns:(Int64.of_int i) ~dur_ns:1L) names;
      let parsed = TT.parse_jsonl (T.to_jsonl ()) in
      Alcotest.(check (list string))
        "names survive JSONL" names
        (List.map (fun (sp : T.span) -> sp.T.name) parsed))

(* ------------------------------------------------------------------ *)
(* LSK1 trace-context extension under the faulted channel              *)
(* ------------------------------------------------------------------ *)

let fresh_sketch () =
  P.pack
    (module Count_sketch.Linear)
    (Count_sketch.create (Prng.create 7103) ~dim:100
       ~params:{ Count_sketch.rows = 3; cols = 32; hash_degree = 4 })

let loaded_sketch seed =
  let sk = fresh_sketch () in
  let rng = Prng.create (7200 + seed) in
  for _ = 1 to 50 do
    P.update sk ~index:(Prng.int rng 100) ~delta:(Prng.int rng 9 - 4)
  done;
  sk

(* Ship one traced envelope through every fault the plan draws on a small
   coordinate grid; decode whatever the channel delivers.  Returns how
   many decodes succeeded. *)
let fuzz_channel ~plan ~ctx ~envelope =
  let ok = ref 0 in
  let decode bytes =
    let dst = fresh_sketch () in
    match P.deserialize_result dst bytes with
    | Ok () ->
        check_bool "decoded bytes are the sent bytes" true (bytes = envelope);
        incr ok
    | Error _ -> check_bool "only damaged bytes fail to decode" true (bytes <> envelope)
  in
  for server = 0 to 3 do
    for attempt = 0 to 3 do
      let fault = FP.draw plan ~server ~message:0 ~attempt in
      let crng = FP.channel_rng plan ~server ~message:0 ~attempt in
      match FP.apply crng fault envelope with
      | FP.Delivered bytes -> decode bytes
      | FP.Duplicated bytes ->
          decode bytes;
          decode bytes
      | FP.Delayed (_, bytes) -> decode bytes
      | FP.Lost | FP.Crashed -> ()
    done
  done;
  ignore ctx;
  !ok

let prop_context_survives_faults =
  QCheck.Test.make ~name:"trace context survives LSK1 round-trip under fault fuzz" ~count:25
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (seed, fault_seed) ->
      with_obs (fun () ->
          T.reset ~capacity:4096 ();
          let sk = loaded_sketch seed in
          let ctx = ref None in
          let envelope =
            T.with_span "fuzz.ship" (fun () ->
                ctx := T.current_context ();
                P.serialize ?trace:(T.current_context ()) sk)
          in
          let ctx = Option.get !ctx in
          let plan = FP.random ~seed:fault_seed ~rate:0.6 in
          let ok = fuzz_channel ~plan ~ctx ~envelope in
          (* Every successful decode recorded one linked span; duplicates
             and delays made extra decodes, never colliding ids. *)
          let decodes =
            List.filter (fun (sp : T.span) -> sp.T.name = "sketch.decode") (T.spans ())
          in
          check_int "one linked span per successful decode" ok (List.length decodes);
          let ids =
            List.sort_uniq Int64.compare (List.map (fun (s : T.span) -> s.T.span_id) decodes)
          in
          check_int "no colliding span ids across duplicates" ok (List.length ids);
          List.iter
            (fun (sp : T.span) ->
              check_bool "decode parents under the shipping span" true
                (sp.T.parent_id = ctx.T.span_id);
              check_bool "decode joins the shipping trace" true
                (sp.T.trace_id = ctx.T.trace_id))
            decodes;
          ignore (assert_well_formed (T.spans ()));
          true))

let prop_wire_backward_compatible =
  QCheck.Test.make ~name:"envelopes without the extension still decode (both directions)"
    ~count:25
    QCheck.(int_bound 10_000)
    (fun seed ->
      let sk = loaded_sketch seed in
      let plain = P.serialize sk in
      (* The extension is strictly additive: a traced envelope is the
         plain payload plus tag + two fixed64 words, re-checksummed. *)
      let traced =
        with_obs (fun () ->
            T.with_span "compat.ship" (fun () ->
                P.serialize ?trace:(T.current_context ()) sk))
      in
      (* length-prefixed "TCTX" tag (5 bytes) + two fixed64 words *)
      check_int "extension adds exactly tag + 16 bytes"
        (String.length plain + 5 + 16)
        (String.length traced);
      (* Plain envelopes decode with tracing on, traced envelopes decode
         with tracing off, and both yield the same sketch state. *)
      let decode_to bytes =
        let dst = fresh_sketch () in
        match P.deserialize_result dst bytes with
        | Ok () -> P.serialize dst
        | Error e -> Alcotest.failf "decode failed: %s" (LS.error_to_string e)
      in
      let from_plain = with_obs (fun () -> decode_to plain) in
      let from_traced = decode_to traced in
      check_bool "same decoded state from plain and traced" true (from_plain = from_traced);
      (* A plain envelope never records a linked decode span. *)
      with_obs (fun () ->
          T.reset ();
          ignore (decode_to plain);
          check_int "no decode span without the extension" 0 (List.length (T.spans ())));
      true)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "trace"
    [
      ( "forest",
        [
          q prop_forest_well_formed;
          q prop_jsonl_round_trip;
          Alcotest.test_case "JSONL keeps span names verbatim" `Quick test_jsonl_names_verbatim;
        ] );
      ( "wire",
        [ q prop_context_survives_faults; q prop_wire_backward_compatible ] );
    ]
