(* The serve layer: framed transport hardening, admission control and
   backpressure, crash-consistent checkpoint/recovery with quarantine,
   and the end-to-end kill -9 property — every acked update survives,
   bit-identically, under a seeded fault sweep. *)

open Ds_util
open Ds_serve
open Ds_fault
open Ds_sim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let tmp_counter = ref 0

let fresh_dir prefix =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Unix.unlink path
  in
  rm d;
  Unix.mkdir d 0o755;
  d

(* ------------------------------------------------------------------ *)
(* Framing: length prefixes and the incremental reader                 *)
(* ------------------------------------------------------------------ *)

let frame payload =
  let b = Buffer.create (String.length payload + 4) in
  Wire.write_frame b payload;
  Buffer.contents b

let test_frame_roundtrip () =
  let r = Frame_reader.create () in
  Frame_reader.feed r (frame "hello" ^ frame "" ^ frame "world");
  let next () =
    match Frame_reader.next r with Ok (Some p) -> p | _ -> Alcotest.fail "expected frame"
  in
  check_string "first" "hello" (next ());
  check_string "second" "" (next ());
  check_string "third" "world" (next ());
  check_bool "drained" true (Frame_reader.next r = Ok None)

let test_frame_negative_rejected () =
  let r = Frame_reader.create () in
  Frame_reader.feed r "\xff\xff\xff\xff";
  (match Frame_reader.next r with
  | Error (Wire.Frame_negative l) -> check_bool "negative" true (l < 0)
  | _ -> Alcotest.fail "negative length must be a typed error");
  (* Poisoned: even valid bytes afterwards never produce frames. *)
  Frame_reader.feed r (frame "x");
  check_bool "poisoned" true (match Frame_reader.next r with Error _ -> true | _ -> false)

let test_frame_oversized_rejected () =
  let r = Frame_reader.create () in
  (* Header declares 2^30 bytes; the reader must refuse from the 4 header
     bytes alone, before any payload allocation. *)
  let b = Buffer.create 4 in
  Wire.write_frame_header b (1 lsl 30);
  Frame_reader.feed r (Buffer.contents b);
  match Frame_reader.next r with
  | Error (Wire.Frame_too_large { length; max }) ->
      check_int "declared" (1 lsl 30) length;
      check_int "ceiling" Frame_reader.max_frame max
  | _ -> Alcotest.fail "oversized length must be a typed error"

(* Fuzz: any chunking of any frame sequence reassembles exactly. *)
let prop_reader_chunking =
  QCheck.Test.make ~name:"frame reader: any chunking reassembles exactly" ~count:200
    QCheck.(pair (small_list (string_of_size Gen.small_nat)) small_nat)
    (fun (payloads, salt) ->
      let wire = String.concat "" (List.map frame payloads) in
      let rng = Prng.create (0xF00D + salt) in
      let r = Frame_reader.create () in
      let pos = ref 0 in
      let len = String.length wire in
      let out = ref [] in
      let drain () =
        let continue = ref true in
        while !continue do
          match Frame_reader.next r with
          | Ok (Some p) -> out := p :: !out
          | Ok None -> continue := false
          | Error _ -> QCheck.Test.fail_report "reader failed on valid input"
        done
      in
      while !pos < len do
        let k = 1 + Prng.int rng (min 7 (len - !pos)) in
        Frame_reader.feed r (String.sub wire !pos k);
        pos := !pos + k;
        drain ()
      done;
      drain ();
      List.rev !out = payloads && Frame_reader.buffered r = 0)

(* Fuzz: garbage prefixes never crash the reader — they either parse as
   (bounded) frames or fail with a typed error. *)
let prop_reader_garbage =
  QCheck.Test.make ~name:"frame reader: garbage is typed-rejected or bounded" ~count:300
    QCheck.(string_of_size Gen.small_nat)
    (fun garbage ->
      let r = Frame_reader.create () in
      Frame_reader.feed r garbage;
      let rec go () =
        match Frame_reader.next r with
        | Ok (Some p) -> String.length p <= Frame_reader.max_frame && go ()
        | Ok None -> true
        | Error _ -> true
      in
      go ())

(* ------------------------------------------------------------------ *)
(* SRV1 codec                                                          *)
(* ------------------------------------------------------------------ *)

let requests =
  [
    Sframe.Create { tenant = "t0"; stream = "s0"; family = "agm"; n = 64; seed = 7 };
    Sframe.Ingest { tenant = "t0"; stream = "s0"; seq = 3; payload = "\x00\xffbytes" };
    Sframe.Query { tenant = "a"; stream = "b" };
    Sframe.Seq_query { tenant = "a"; stream = "b" };
    Sframe.Flush { tenant = "a" };
    Sframe.Drop_copies { tenant = "a"; stream = "b"; copies = [ 0; 2; 5 ] };
    Sframe.Stats;
    Sframe.Stat_rollup;
  ]

let responses =
  [
    Sframe.Created { words = 123 };
    Sframe.Ack { seq = 9; durable_seq = 4 };
    Sframe.Nack { seq = 2; reason = Sframe.Overloaded { queue_depth = 10; bound = 8 } };
    Sframe.Nack
      { seq = -1; reason = Sframe.Quota_exceeded { used_words = 5; budget_words = 6 } };
    Sframe.Nack { seq = -1; reason = Sframe.Unknown_stream };
    Sframe.Nack { seq = -1; reason = Sframe.Stream_exists };
    Sframe.Nack { seq = -1; reason = Sframe.Unknown_family "nope" };
    Sframe.Nack { seq = 7; reason = Sframe.Bad_seq { expected = 4; got = 7 } };
    Sframe.Nack { seq = -1; reason = Sframe.Bad_frame "why" };
    Sframe.State
      {
        payload = "envelope";
        applied_seq = 5;
        copies_total = 12;
        copies_lost = 2;
        certified_delta = 0.125;
      };
    Sframe.Seqs { applied_seq = 5; durable_seq = 3 };
    Sframe.Flushed { generation = 2 };
    Sframe.Stats_reply { tenants = 1; streams = 2; applied_frames = 3; words = 4 };
    Sframe.Dropped { copies_lost = 3 };
    Sframe.Stat_rollup_reply { json = "{\"schema\":\"serve_stats/v1\",\"queue\":{}}" };
  ]

let test_sframe_roundtrip () =
  List.iter
    (fun r ->
      match Sframe.decode_request (Sframe.encode_request r) with
      | Ok r' -> check_bool "request" true (r = r')
      | Error m -> Alcotest.fail ("request decode: " ^ m))
    requests;
  List.iter
    (fun r ->
      match Sframe.decode_response (Sframe.encode_response r) with
      | Ok r' -> check_bool "response" true (r = r')
      | Error m -> Alcotest.fail ("response decode: " ^ m))
    responses

let prop_sframe_corruption_detected =
  QCheck.Test.make ~name:"SRV1: any single-byte corruption is a typed decode error"
    ~count:300
    QCheck.(pair small_nat small_nat)
    (fun (which, salt) ->
      let msg = Sframe.encode_request (List.nth requests (which mod List.length requests)) in
      let rng = Prng.create (0xBAD + salt) in
      let pos = Prng.int rng (String.length msg) in
      let b = Bytes.of_string msg in
      let flip = 1 + Prng.int rng 255 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip));
      match Sframe.decode_request (Bytes.to_string b) with
      | Error _ -> true
      | Ok r' ->
          (* A flip inside the payload of [Ingest] that still checksums is
             impossible; decode must never silently succeed on different
             bytes. *)
          QCheck.Test.fail_reportf "corrupted frame decoded as %s"
            (match r' with Sframe.Stats -> "stats" | _ -> "request"))

(* SRV1 trace context: the TCTX extension mirrors LSK1's — optional,
   inside the checksum, byte-invisible when absent. *)

let hex s = String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let test_srv1_trace_roundtrip () =
  let r = Sframe.Ingest { tenant = "t0"; stream = "s0"; seq = 3; payload = "\x00\xffbytes" } in
  let ctx =
    { Ds_obs.Trace.trace_id = 0x1234_5678_9abc_def0L; span_id = 0x0fed_cba9_8765_4321L }
  in
  (match Sframe.decode_request_traced (Sframe.encode_request ~trace:ctx r) with
  | Ok (r', Some ctx') ->
      check_bool "request preserved" true (r = r');
      check_bool "context preserved" true (ctx = ctx')
  | Ok (_, None) -> Alcotest.fail "trace context lost in decode"
  | Error m -> Alcotest.fail ("traced decode: " ^ m));
  (* A current server accepts traced frames through the plain decoder
     (context dropped, request intact). *)
  (match Sframe.decode_request (Sframe.encode_request ~trace:ctx r) with
  | Ok r' -> check_bool "plain decode tolerates TCTX" true (r = r')
  | Error m -> Alcotest.fail ("plain decode of traced frame: " ^ m));
  (* And an untraced frame decodes with no context — old clients against
     a new server. *)
  match Sframe.decode_request_traced (Sframe.encode_request r) with
  | Ok (r', None) -> check_bool "untraced has no context" true (r = r')
  | Ok (_, Some _) -> Alcotest.fail "phantom context on untraced frame"
  | Error m -> Alcotest.fail ("untraced decode: " ^ m)

let test_srv1_untraced_golden_bytes () =
  (* Byte pin of the untraced encoding: new clients with tracing off
     must stay wire-identical to what pre-TCTX servers accepted, so
     this hex may never change. *)
  check_string "query golden" "08535256310602610262e202de936f75926d"
    (hex (Sframe.encode_request (Sframe.Query { tenant = "a"; stream = "b" })));
  check_string "ingest golden" "085352563104027402730204787975eac2b39fc10465"
    (hex
       (Sframe.encode_request
          (Sframe.Ingest { tenant = "t"; stream = "s"; seq = 1; payload = "xy" })));
  (* Tracing off goes through the same code path as the optional
     argument simply being absent. *)
  let r = Sframe.Flush { tenant = "a" } in
  check_string "?trace:None is byte-identical" (hex (Sframe.encode_request r))
    (hex (Sframe.encode_request ?trace:None r))

(* ------------------------------------------------------------------ *)
(* Connection-level fault draws                                        *)
(* ------------------------------------------------------------------ *)

let test_conn_draw_deterministic () =
  let plan = Fault_plan.random ~seed:99 ~rate:0.5 in
  for server = 0 to 5 do
    for message = 0 to 20 do
      let a = Fault_plan.draw_conn plan ~server ~message ~attempt:0 in
      let b = Fault_plan.draw_conn plan ~server ~message ~attempt:0 in
      check_bool "stateless draw" true (a = b)
    done
  done;
  (* The conn stream is salted separately from the message-fault stream:
     drawing conn faults must not perturb classic draws. *)
  let plan2 = Fault_plan.random ~seed:99 ~rate:0.5 in
  let classic = List.init 50 (fun m -> Fault_plan.draw plan2 ~server:1 ~message:m ~attempt:0) in
  List.iteri
    (fun m _ -> ignore (Fault_plan.draw_conn plan2 ~server:1 ~message:m ~attempt:0))
    classic;
  let classic' =
    List.init 50 (fun m -> Fault_plan.draw plan2 ~server:1 ~message:m ~attempt:0)
  in
  check_bool "conn draws do not disturb classic draws" true (classic = classic')

let test_conn_apply_shapes () =
  let plan = Fault_plan.random ~seed:7 ~rate:1.0 in
  let msg = "0123456789abcdef" in
  let seen = Hashtbl.create 4 in
  for message = 0 to 199 do
    let fault = Fault_plan.draw_conn plan ~server:3 ~message ~attempt:0 in
    check_bool "rate 1.0 always faults" true (fault <> None);
    let rng = Fault_plan.conn_rng plan ~server:3 ~message ~attempt:0 in
    (match Fault_plan.apply_conn rng fault msg with
    | Fault_plan.Conn_delivered _ -> Alcotest.fail "faulted send delivered whole"
    | Fault_plan.Conn_prefix_stall p | Fault_plan.Conn_prefix_close p ->
        check_bool "strict prefix" true
          (String.length p < String.length msg && p = String.sub msg 0 (String.length p))
    | Fault_plan.Conn_reordered_dup m -> check_string "dup carries the message" msg m);
    match fault with
    | Some f -> Hashtbl.replace seen (Fault_plan.conn_fault_name f) ()
    | None -> ()
  done;
  List.iter
    (fun k -> check_bool ("kind drawn: " ^ k) true (Hashtbl.mem seen k))
    Fault_plan.conn_kind_names

(* ------------------------------------------------------------------ *)
(* Registry: admission control and the sequence watermark              *)
(* ------------------------------------------------------------------ *)

let mk_payload ~family ~n ~seed updates =
  match Families.make ~family ~n ~seed with
  | Error m -> Alcotest.fail m
  | Ok made ->
      List.iter
        (fun (index, delta) ->
          Ds_sketch.Linear_sketch.Packed.update made.Families.packed ~index ~delta)
        updates;
      Ds_sketch.Linear_sketch.Packed.serialize made.Families.packed

let test_registry_quota () =
  let reg = Registry.create ~quota_words:200 in
  let first =
    Registry.create_stream reg ~tenant:"t" ~stream:"a" ~family:"count_sketch" ~n:64 ~seed:1
  in
  check_bool "first admitted" true (Result.is_ok first);
  (match
     Registry.create_stream reg ~tenant:"t" ~stream:"b" ~family:"agm" ~n:4096 ~seed:2
   with
  | Error (Sframe.Quota_exceeded { used_words; budget_words }) ->
      check_bool "budget echoed" true (budget_words = 200 && used_words > 0)
  | _ -> Alcotest.fail "over-budget create must be Quota_exceeded");
  (* Another tenant has its own budget. *)
  check_bool "budgets are per-tenant" true
    (Result.is_ok
       (Registry.create_stream reg ~tenant:"u" ~stream:"a" ~family:"count_sketch" ~n:64
          ~seed:1))

let test_registry_watermark () =
  let reg = Registry.create ~quota_words:100_000 in
  let s =
    match
      Registry.create_stream reg ~tenant:"t" ~stream:"s" ~family:"count_sketch" ~n:64 ~seed:5
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "create"
  in
  let p1 = mk_payload ~family:"count_sketch" ~n:64 ~seed:5 [ (1, 2) ] in
  let p2 = mk_payload ~family:"count_sketch" ~n:64 ~seed:5 [ (3, 4) ] in
  check_bool "seq 1 applies" true (Registry.apply s ~seq:1 ~payload:p1 = Ok Registry.Applied);
  check_bool "replayed seq 1 is a duplicate" true
    (Registry.apply s ~seq:1 ~payload:p1 = Ok Registry.Duplicate);
  (match Registry.apply s ~seq:3 ~payload:p2 with
  | Error (Sframe.Bad_seq { expected; got }) ->
      check_int "expected" 2 expected;
      check_int "got" 3 got
  | _ -> Alcotest.fail "gap must be Bad_seq");
  check_bool "seq 2 applies" true (Registry.apply s ~seq:2 ~payload:p2 = Ok Registry.Applied);
  check_int "watermark" 2 s.Registry.applied_seq;
  (* Duplicates leave the envelope untouched: absorb p1 again and the
     serialized state must not change. *)
  let before = Ds_sketch.Linear_sketch.Packed.serialize s.Registry.packed in
  ignore (Registry.apply s ~seq:1 ~payload:p1);
  ignore (Registry.apply s ~seq:2 ~payload:p2);
  check_string "duplicates are no-ops" before
    (Ds_sketch.Linear_sketch.Packed.serialize s.Registry.packed)

let test_registry_create_idempotent () =
  let reg = Registry.create ~quota_words:10_000_000 in
  let a = Registry.create_stream reg ~tenant:"t" ~stream:"s" ~family:"agm" ~n:64 ~seed:5 in
  let b = Registry.create_stream reg ~tenant:"t" ~stream:"s" ~family:"agm" ~n:64 ~seed:5 in
  (* Physical equality: the re-create must return the same live stream,
     not a fresh sketch (structural compare would poke closures). *)
  check_bool "identical triple is idempotent" true
    (match (a, b) with Ok x, Ok y -> x == y | _ -> false);
  match Registry.create_stream reg ~tenant:"t" ~stream:"s" ~family:"agm" ~n:64 ~seed:6 with
  | Error Sframe.Stream_exists -> ()
  | _ -> Alcotest.fail "mismatched triple must be Stream_exists"

(* ------------------------------------------------------------------ *)
(* Server core: backpressure                                           *)
(* ------------------------------------------------------------------ *)

let ingest_frame ~tenant ~stream ~seq ~payload =
  Sframe.frame (Sframe.encode_request (Sframe.Ingest { tenant; stream; seq; payload }))

let read_responses conn =
  let r = Frame_reader.create () in
  Frame_reader.feed r (Server.take_output conn);
  let rec go acc =
    match Frame_reader.next r with
    | Ok (Some p) -> (
        match Sframe.decode_response p with
        | Ok resp -> go (resp :: acc)
        | Error m -> Alcotest.fail ("response decode: " ^ m))
    | Ok None -> List.rev acc
    | Error _ -> Alcotest.fail "response framing"
  in
  go []

let test_server_backpressure () =
  let dir = fresh_dir "serve-bp" in
  let config =
    {
      (Server.default_config ~dir) with
      Server.queue_bound = 4;
      drain_per_tick = 100;
      checkpoint_every = 1_000_000;
    }
  in
  let server = Server.create config in
  let conn = Server.connect server in
  Server.feed server conn
    (Sframe.frame
       (Sframe.encode_request
          (Sframe.Create { tenant = "t"; stream = "s"; family = "count_sketch"; n = 64; seed = 3 })));
  (match read_responses conn with
  | [ Sframe.Created _ ] -> ()
  | _ -> Alcotest.fail "create response");
  let payload = mk_payload ~family:"count_sketch" ~n:64 ~seed:3 [ (1, 1) ] in
  (* 10 frames into a queue of 4 without draining: 4 queued, 6 refused
     with a typed Overloaded NACK naming the bound. *)
  for seq = 1 to 10 do
    Server.feed server conn (ingest_frame ~tenant:"t" ~stream:"s" ~seq ~payload)
  done;
  let nacks =
    List.filter
      (function
        | Sframe.Nack { reason = Sframe.Overloaded { bound; _ }; _ } ->
            check_int "bound echoed" 4 bound;
            true
        | _ -> Alcotest.fail "only Overloaded NACKs before drain")
      (read_responses conn)
  in
  check_int "six refused" 6 (List.length nacks);
  check_int "four queued" 4 (Server.pending_depth server);
  Server.drain server;
  let acks = read_responses conn in
  check_int "four acked after drain" 4 (List.length acks);
  List.iter
    (function
      | Sframe.Ack _ -> () | _ -> Alcotest.fail "queued frames must ack after drain")
    acks

(* ------------------------------------------------------------------ *)
(* Observability: STAT rollup, bounded gauges, stitched apply spans    *)
(* ------------------------------------------------------------------ *)

let with_obs_here f =
  Ds_obs.Export.enable ();
  Ds_obs.Export.reset ();
  Fun.protect
    ~finally:(fun () ->
      Ds_obs.Export.disable ();
      Ds_obs.Export.reset ())
    f

let create_frame ~tenant ~stream ~family ~n ~seed =
  Sframe.frame (Sframe.encode_request (Sframe.Create { tenant; stream; family; n; seed }))

let test_stat_rollup_through_core () =
  let dir = fresh_dir "serve-stat" in
  let config =
    {
      (Server.default_config ~dir) with
      Server.checkpoint_every = 1_000_000;
      drain_per_tick = 100;
    }
  in
  let server = Server.create config in
  let conn = Server.connect server in
  let payload = mk_payload ~family:"count_sketch" ~n:64 ~seed:3 [ (1, 1) ] in
  (* One tenant more than the rollup shows. *)
  let tenants = 65 in
  List.iter
    (fun tenant ->
      Server.feed server conn
        (create_frame ~tenant ~stream:"s" ~family:"count_sketch" ~n:64 ~seed:3);
      Server.feed server conn (ingest_frame ~tenant ~stream:"s" ~seq:1 ~payload))
    (List.init tenants (Printf.sprintf "t%02d"));
  Server.drain server;
  ignore (Server.take_output conn);
  Server.feed server conn (Sframe.frame (Sframe.encode_request Sframe.Stat_rollup));
  let json =
    match read_responses conn with
    | [ Sframe.Stat_rollup_reply { json } ] -> json
    | _ -> Alcotest.fail "expected exactly one Stat_rollup_reply"
  in
  match Json.parse json with
  | Error m -> Alcotest.failf "rollup unparseable by the in-tree reader: %s" m
  | Ok doc ->
      let num path =
        match Option.bind (Json.path path doc) Json.to_int with
        | Some v -> v
        | None -> Alcotest.failf "missing %s" (String.concat "." path)
      in
      check_string "schema" "serve_stats/v1"
        (Option.value ~default:"" (Option.bind (Json.member "schema" doc) Json.to_str));
      check_int "tenant total" tenants (num [ "totals"; "tenants" ]);
      check_int "applied total" tenants (num [ "totals"; "applied_frames" ]);
      check_bool "words total positive" true (num [ "totals"; "words" ] > 0);
      (* The per-tenant section is bounded at 64 tenants: 64 shown, 1
         rolled into the omitted line — the rollup's size does not scale
         with tenant count. *)
      (match Option.bind (Json.member "tenants" doc) Json.to_obj with
      | Some shown -> check_int "per-tenant section capped" 64 (List.length shown)
      | None -> Alcotest.fail "no tenants object");
      check_int "omitted tenants counted" 1 (num [ "tenants_omitted"; "count" ]);
      check_bool "omitted words accounted" true (num [ "tenants_omitted"; "words" ] > 0)

let test_tenant_gauges_top_k () =
  with_obs_here @@ fun () ->
  let dir = fresh_dir "serve-gauge" in
  let config =
    {
      (Server.default_config ~dir) with
      Server.tenant_gauges = 1;
      checkpoint_every = 1_000_000;
      drain_per_tick = 100;
    }
  in
  let server = Server.create config in
  let conn = Server.connect server in
  (* heavy holds two streams, light one: only heavy earns a registry
     gauge under tenant_gauges = 1. *)
  Server.feed server conn
    (create_frame ~tenant:"heavy" ~stream:"a" ~family:"count_sketch" ~n:64 ~seed:1);
  Server.feed server conn
    (create_frame ~tenant:"heavy" ~stream:"b" ~family:"count_sketch" ~n:64 ~seed:2);
  Server.feed server conn
    (create_frame ~tenant:"light" ~stream:"a" ~family:"count_sketch" ~n:64 ~seed:3);
  ignore (Server.take_output conn);
  Server.checkpoint_now server;
  let gauges () = (Ds_obs.Metrics.snapshot ()).Ds_obs.Metrics.gauges in
  check_bool "heavy gauged" true (List.mem_assoc "serve.tenant.words.heavy" (gauges ()));
  check_bool "light not gauged (registry stays bounded)" false
    (List.mem_assoc "serve.tenant.words.light" (gauges ()));
  (* Weight flips: light grows past heavy, the next refresh evicts the
     stale gauge instead of accumulating one per tenant forever. *)
  Server.feed server conn
    (create_frame ~tenant:"light" ~stream:"b" ~family:"count_sketch" ~n:64 ~seed:4);
  Server.feed server conn
    (create_frame ~tenant:"light" ~stream:"c" ~family:"count_sketch" ~n:64 ~seed:5);
  ignore (Server.take_output conn);
  Server.checkpoint_now server;
  check_bool "light gauged after flip" true
    (List.mem_assoc "serve.tenant.words.light" (gauges ()));
  check_bool "heavy evicted after flip" false
    (List.mem_assoc "serve.tenant.words.heavy" (gauges ()))

let test_trace_context_stitches_apply () =
  with_obs_here @@ fun () ->
  let dir = fresh_dir "serve-tctx" in
  let config =
    { (Server.default_config ~dir) with Server.checkpoint_every = 1_000_000 }
  in
  let server = Server.create config in
  let conn = Server.connect server in
  Server.feed server conn
    (create_frame ~tenant:"t" ~stream:"s" ~family:"count_sketch" ~n:64 ~seed:3);
  ignore (Server.take_output conn);
  let payload = mk_payload ~family:"count_sketch" ~n:64 ~seed:3 [ (1, 1) ] in
  let ctx = { Ds_obs.Trace.trace_id = 0x77L; span_id = 0x99L } in
  Server.feed server conn
    (Sframe.frame
       (Sframe.encode_request ~trace:ctx
          (Sframe.Ingest { tenant = "t"; stream = "s"; seq = 1; payload })));
  Server.drain server;
  ignore (Server.take_output conn);
  match
    List.find_opt
      (fun s -> s.Ds_obs.Trace.name = "serve.apply")
      (Ds_obs.Trace.spans ())
  with
  | None -> Alcotest.fail "no serve.apply span recorded"
  | Some sp ->
      (* The apply span joined the sender's trace: same trace id,
         parented under the carried span — what Trace_tree stitches
         across processes. *)
      check_bool "trace id carried" true (sp.Ds_obs.Trace.trace_id = 0x77L);
      check_bool "parented under client span" true (sp.Ds_obs.Trace.parent_id = 0x99L)

(* ------------------------------------------------------------------ *)
(* Checkpoints: torn writes are quarantined, never decoded             *)
(* ------------------------------------------------------------------ *)

let build_store dir =
  let config =
    {
      (Server.default_config ~dir) with
      Server.queue_bound = 64;
      drain_per_tick = 64;
      checkpoint_every = 1_000_000;
    }
  in
  let server = Server.create config in
  let conn = Server.connect server in
  let specs = [ ("alpha", "agm", 64, 11); ("beta", "count_sketch", 64, 12) ] in
  List.iter
    (fun (stream, family, n, seed) ->
      Server.feed server conn
        (Sframe.frame
           (Sframe.encode_request (Sframe.Create { tenant = "t"; stream; family; n; seed }))))
    specs;
  ignore (Server.take_output conn);
  let send_batch seq =
    List.iter
      (fun (stream, family, n, seed) ->
        let payload = mk_payload ~family ~n ~seed [ ((seq * 7) mod n, seq) ] in
        Server.feed server conn (ingest_frame ~tenant:"t" ~stream ~seq ~payload))
      specs;
    Server.drain server;
    ignore (Server.take_output conn)
  in
  send_batch 1;
  Server.checkpoint_now server;
  send_batch 2;
  Server.checkpoint_now server;
  (config, specs)

let gen_file dir generation = Checkpoint.gen_path ~dir ~tenant:"t" ~generation

let recovered_applied config =
  let server = Server.create config in
  let tn =
    match Registry.find_tenant (Server.registry server) "t" with
    | Some tn -> tn
    | None -> Alcotest.fail "tenant lost entirely"
  in
  let applied =
    Hashtbl.fold (fun _ s acc -> max acc s.Registry.applied_seq) tn.Registry.streams 0
  in
  (server, applied)

let test_recovery_prefers_newest () =
  let dir = fresh_dir "serve-ck" in
  let config, _ = build_store dir in
  let server, applied = recovered_applied config in
  check_int "newest generation wins" 2 applied;
  check_int "nothing quarantined" 0 (Server.recovery_report server).Server.r_quarantined

let prop_torn_generation_quarantined =
  QCheck.Test.make
    ~name:"torn generation: quarantined, never decoded, previous generation loads" ~count:25
    QCheck.(small_nat)
    (fun salt ->
      let dir = fresh_dir "serve-torn" in
      let config, _ = build_store dir in
      let path = gen_file dir 2 in
      let len = (Unix.stat path).Unix.st_size in
      let keep = Prng.int (Prng.create (0x7EA2 + salt)) len in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd keep;
      Unix.close fd;
      let server, applied = recovered_applied config in
      let r = Server.recovery_report server in
      let quarantine_events =
        List.length
          (List.filter
             (fun e -> String.length e >= 10 && String.sub e 0 10 = "quarantine")
             (Server.events server))
      in
      (* Exactly one quarantine (the torn gen-2), fallback applied the
         gen-1 snapshot, and the torn file sits renamed for post-mortem. *)
      r.Server.r_quarantined = 1
      && quarantine_events = 1
      && applied = 1
      && Sys.file_exists (path ^ ".quarantined")
      && not (Sys.file_exists path))

let test_tmp_file_quarantined () =
  let dir = fresh_dir "serve-tmp" in
  let config, _ = build_store dir in
  (* A crash mid-write leaves gen-3.scp.tmp; recovery must quarantine it
     without decoding and keep serving generation 2. *)
  let tmp = gen_file dir 3 ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc "torn nonsense that must never be decoded";
  close_out oc;
  let server, applied = recovered_applied config in
  check_int "tmp quarantined" 1 (Server.recovery_report server).Server.r_quarantined;
  check_int "still at generation 2" 2 applied;
  check_bool "renamed for post-mortem" true (Sys.file_exists (tmp ^ ".quarantined"));
  (* The next checkpoint must not reuse generation 3 (the dead writer may
     have touched it): the new generation is 4. *)
  let conn = Server.connect server in
  let payload = mk_payload ~family:"count_sketch" ~n:64 ~seed:12 [ (5, 5) ] in
  Server.feed server conn (ingest_frame ~tenant:"t" ~stream:"beta" ~seq:3 ~payload);
  Server.drain server;
  Server.checkpoint_now server;
  check_bool "generation numbers never reused" true (Sys.file_exists (gen_file dir 4))

(* A long-running server logs one event per checkpointed tenant; the log
   keeps the newest 64, oldest first, however many waves pass. *)
let test_event_log_bounded () =
  let dir = fresh_dir "serve-events" in
  let config =
    { (Server.default_config ~dir) with Server.checkpoint_every = 1_000_000 }
  in
  let server = Server.create config in
  let conn = Server.connect server in
  Server.feed server conn
    (create_frame ~tenant:"t" ~stream:"s" ~family:"count_sketch" ~n:64 ~seed:3);
  let waves = 120 in
  for seq = 1 to waves do
    let payload = mk_payload ~family:"count_sketch" ~n:64 ~seed:3 [ (seq mod 64, 1) ] in
    Server.feed server conn (ingest_frame ~tenant:"t" ~stream:"s" ~seq ~payload);
    Server.drain server;
    ignore (Server.take_output conn);
    Server.checkpoint_now server
  done;
  let events = Server.events server in
  check_int "log bounded" 64 (List.length events);
  check_bool "newest last" true
    (String.starts_with
       ~prefix:(Printf.sprintf "checkpoint: tenant t generation %d " waves)
       (List.nth events 63))

(* ------------------------------------------------------------------ *)
(* End to end: the kill -9 property under a seeded fault sweep         *)
(* ------------------------------------------------------------------ *)

let small_plan seed =
  Loadgen.make ~seed ~tenants:2 ~streams_per_tenant:2 ~updates:160 ~n:64 ~batch:4 ()

let test_sim_clean_run () =
  let dir = fresh_dir "serve-sim" in
  let r = Serve_sim.run ~plan:Fault_plan.none ~dir (small_plan 1) in
  check_bool "clean run converges bit-identically" true r.Serve_sim.sv_final_match;
  check_int "no faults" 0 r.Serve_sim.sv_conn_faults;
  check_int "no crashes" 0 r.Serve_sim.sv_crashes;
  check_bool "every frame acked" true (r.Serve_sim.sv_acked >= r.Serve_sim.sv_frames)

let test_sim_backpressure_fires () =
  let dir = fresh_dir "serve-simbp" in
  let r =
    Serve_sim.run ~queue_bound:3 ~drain_per_tick:2 ~burst:6 ~plan:Fault_plan.none ~dir
      (small_plan 2)
  in
  check_bool "overload NACKs observed" true (r.Serve_sim.sv_overloaded > 0);
  check_bool "still converges" true r.Serve_sim.sv_final_match

let test_sim_conn_faults_heal () =
  let dir = fresh_dir "serve-simcf" in
  let plan = Fault_plan.random ~seed:5 ~rate:0.15 in
  let r = Serve_sim.run ~plan ~dir (small_plan 3) in
  check_bool "faults were drawn" true (r.Serve_sim.sv_conn_faults > 0);
  check_bool "healed bit-identically" true r.Serve_sim.sv_final_match

let test_sim_kill9_sweep () =
  (* The acceptance property: for every (workload, plan, crash cadence)
     in the sweep, recovery + replay-by-linearity converges to the
     mirror envelope bit for bit, torn generations are quarantined and
     never decoded, and no acked update is ever lost. *)
  List.iter
    (fun (wseed, pseed, rate, crash_every, tear) ->
      let dir = fresh_dir "serve-kill9" in
      let plan = Fault_plan.random ~seed:pseed ~rate in
      let r =
        Serve_sim.run ~crash_every ~tear_on_crash:tear ~checkpoint_every:16 ~plan ~dir
          (small_plan wseed)
      in
      let label =
        Printf.sprintf "w%d p%d r%.2f c%d tear=%b" wseed pseed rate crash_every tear
      in
      check_bool (label ^ ": crashed") true (r.Serve_sim.sv_crashes > 0);
      check_bool (label ^ ": bit-identical convergence") true r.Serve_sim.sv_final_match;
      if tear then
        check_bool
          (label ^ ": every torn generation quarantined")
          true
          (r.Serve_sim.sv_quarantined >= r.Serve_sim.sv_torn && r.Serve_sim.sv_torn > 0))
    [
      (11, 21, 0.0, 25, false);
      (12, 22, 0.1, 30, false);
      (13, 23, 0.0, 25, true);
      (14, 24, 0.12, 20, true);
      (15, 25, 0.25, 35, true);
    ]

let test_sim_deterministic_replay () =
  let run seed =
    let dir = fresh_dir "serve-det" in
    Serve_sim.run ~crash_every:20 ~tear_on_crash:true ~checkpoint_every:16
      ~plan:(Fault_plan.random ~seed:77 ~rate:0.2)
      ~dir (small_plan seed)
  in
  let a = run 9 and b = run 9 in
  check_bool "equal-seed chaos runs produce identical reports" true (a = b)

(* ------------------------------------------------------------------ *)
(* Sockets: live server, real client, SIGKILL recovery                 *)
(* ------------------------------------------------------------------ *)

let socket_path () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ds-%d-%d.sock" (Unix.getpid ()) !tmp_counter)

let children = ref []

let reap_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

let start_server ?(obs = false) ?admin config ~socket:path =
  match Unix.fork () with
  | 0 ->
      (* Child: run the accept loop until signalled.  _exit avoids
         flushing the parent's test-runner buffers twice. *)
      if obs then Ds_obs.Export.enable ();
      (try
         Server.run_unix (Server.create config) ~socket_path:path ?admin_path:admin
           ~tick:0.002 ()
       with _ -> ());
      Unix._exit 0
  | pid ->
      let rec wait_listening path tries =
        if tries = 0 then Alcotest.fail "server did not come up";
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> Unix.close fd
        | exception Unix.Unix_error _ ->
            Unix.close fd;
            Unix.sleepf 0.02;
            wait_listening path (tries - 1)
      in
      wait_listening path 250;
      Option.iter (fun a -> wait_listening a 250) admin;
      children := pid :: !children;
      pid

let test_socket_end_to_end () =
  Fun.protect ~finally:reap_children @@ fun () ->
  let dir = fresh_dir "serve-sock" in
  incr tmp_counter;
  let path = socket_path () in
  let config =
    { (Server.default_config ~dir) with Server.checkpoint_every = 4; drain_per_tick = 64 }
  in
  let spec =
    List.find
      (fun s -> s.Loadgen.l_tenant = "tenant-00" && s.Loadgen.l_stream = "stream-00")
      (small_plan 31).Loadgen.p_specs
  in
  let payloads = Array.of_list (Loadgen.batches spec) in
  let total = Array.length payloads in
  let half = total / 2 in
  let ingest client lo hi =
    for i = lo to hi - 1 do
      match
        Client.ingest client ~tenant:spec.Loadgen.l_tenant ~stream:spec.Loadgen.l_stream
          ~payload:payloads.(i)
      with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("ingest: " ^ m)
    done
  in
  let pid = start_server config ~socket:path in
  let client = Client.connect ~socket_path:path ~delay_unit:0.005 () in
  (match
     Client.create_stream client ~tenant:spec.Loadgen.l_tenant ~stream:spec.Loadgen.l_stream
       ~family:spec.Loadgen.l_family ~n:spec.Loadgen.l_n ~seed:spec.Loadgen.l_seed
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("create: " ^ m));
  ingest client 0 half;
  (match Client.flush client ~tenant:spec.Loadgen.l_tenant with
  | Ok g -> check_bool "flushed a generation" true (g >= 1)
  | Error m -> Alcotest.fail ("flush: " ^ m));
  (* kill -9: no warning, no checkpoint, connection severed. *)
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  children := List.filter (fun p -> p <> pid) !children;
  let pid2 = start_server config ~socket:path in
  (* The same client object reconnects, resyncs from the recovered
     watermark and replays its unacked suffix by linearity. *)
  ingest client half total;
  (match
     Client.query client ~tenant:spec.Loadgen.l_tenant ~stream:spec.Loadgen.l_stream
   with
  | Ok st ->
      check_int "every acked frame survived" total st.Client.applied_seq;
      check_string "envelope bit-identical to the seeded mirror"
        (Loadgen.expected_envelope spec) st.Client.payload
  | Error m -> Alcotest.fail ("query: " ^ m));
  check_bool "client reconnected at least once" true (Client.reconnects client >= 1);
  Client.close client;
  Unix.kill pid2 Sys.sigterm;
  ignore (Unix.waitpid [] pid2);
  children := List.filter (fun p -> p <> pid2) !children

let test_large_reply_partial_writes () =
  (* A State reply (~700 KB here) larger than the socket send buffer
     cannot go out in one write: the server resumes it over several
     writable events, and the client must still receive it whole and
     byte-identical. *)
  Fun.protect ~finally:reap_children @@ fun () ->
  let dir = fresh_dir "serve-big" in
  incr tmp_counter;
  let path = socket_path () in
  let rng = Prng.create 17 in
  let n = 96 in
  let spec =
    {
      Loadgen.l_tenant = "big";
      l_stream = "s";
      l_family = "agm";
      l_n = n;
      l_seed = 5;
      l_updates = Array.init 3000 (fun _ -> (Prng.int rng (n * (n - 1) / 2), 1));
      l_batch = 1000;
    }
  in
  let expected = Loadgen.expected_envelope spec in
  let sndbuf =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.getsockopt_int fd Unix.SO_SNDBUF)
  in
  check_bool "reply exceeds the send buffer" true (String.length expected > sndbuf);
  let pid = start_server (Server.default_config ~dir) ~socket:path in
  let client = Client.connect ~socket_path:path ~delay_unit:0.005 () in
  (match
     Client.create_stream client ~tenant:spec.Loadgen.l_tenant ~stream:spec.Loadgen.l_stream
       ~family:spec.Loadgen.l_family ~n ~seed:spec.Loadgen.l_seed
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("create: " ^ m));
  List.iter
    (fun payload ->
      match Client.ingest client ~tenant:"big" ~stream:"s" ~payload with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("ingest: " ^ m))
    (Loadgen.batches spec);
  (match Client.query client ~tenant:"big" ~stream:"s" with
  | Ok st -> check_bool "reply arrives byte-identical" true (st.Client.payload = expected)
  | Error m -> Alcotest.fail ("query: " ^ m));
  Client.close client;
  Unix.kill pid Sys.sigterm;
  ignore (Unix.waitpid [] pid);
  children := List.filter (fun p -> p <> pid) !children

let test_resync_keeps_undurable_suffix () =
  (* The replay-by-linearity trap: reconnect to a LIVE server whose
     checkpoint lags (applied > durable).  Resync must prune the ledger
     only up to the durable watermark — the acked-but-undurable window
     is exactly what a later kill -9 rolls back, and the client is the
     only place it survives. *)
  Fun.protect ~finally:reap_children @@ fun () ->
  let dir = fresh_dir "serve-resync" in
  incr tmp_counter;
  let path = socket_path () in
  (* Checkpoints only on explicit flush, so the durable watermark stays
     pinned while acked frames accumulate above it. *)
  let config =
    {
      (Server.default_config ~dir) with
      Server.checkpoint_every = 1_000_000;
      drain_per_tick = 64;
    }
  in
  let spec =
    List.find
      (fun s -> s.Loadgen.l_tenant = "tenant-00" && s.Loadgen.l_stream = "stream-00")
      (small_plan 41).Loadgen.p_specs
  in
  let tenant = spec.Loadgen.l_tenant and stream = spec.Loadgen.l_stream in
  let payloads = Array.of_list (Loadgen.batches spec) in
  let total = Array.length payloads in
  let durable = total / 3 and applied = 2 * total / 3 in
  check_bool "workload large enough for three phases" true (durable >= 1 && applied > durable);
  let ingest client lo hi =
    for i = lo to hi - 1 do
      match Client.ingest client ~tenant ~stream ~payload:payloads.(i) with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("ingest: " ^ m)
    done
  in
  let pid = start_server config ~socket:path in
  let client = Client.connect ~socket_path:path ~delay_unit:0.005 () in
  (match
     Client.create_stream client ~tenant ~stream ~family:spec.Loadgen.l_family
       ~n:spec.Loadgen.l_n ~seed:spec.Loadgen.l_seed
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("create: " ^ m));
  ingest client 0 durable;
  (match Client.flush client ~tenant with
  | Ok g -> check_bool "flushed a generation" true (g >= 1)
  | Error m -> Alcotest.fail ("flush: " ^ m));
  ingest client durable applied;
  (* Force a reconnect with the server still alive: the resync sees
     applied > durable and must keep the (durable, applied] entries. *)
  Client.close client;
  (match Client.seqs client ~tenant ~stream with
  | Ok (a, d) ->
      check_int "applied watermark" applied a;
      check_int "durable watermark" durable d
  | Error m -> Alcotest.fail ("seqs: " ^ m));
  check_int "ledger keeps the acked-but-undurable suffix" (applied - durable)
    (Client.unacked_count client ~tenant ~stream);
  (* kill -9: the server recovers at the durable watermark; only the
     client's ledger can restore (durable, applied]. *)
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  children := List.filter (fun p -> p <> pid) !children;
  let pid2 = start_server config ~socket:path in
  ingest client applied total;
  (match Client.query client ~tenant ~stream with
  | Ok st ->
      check_int "every acked frame survived" total st.Client.applied_seq;
      check_string "envelope bit-identical to the seeded mirror"
        (Loadgen.expected_envelope spec) st.Client.payload
  | Error m -> Alcotest.fail ("query: " ^ m));
  Client.close client;
  Unix.kill pid2 Sys.sigterm;
  ignore (Unix.waitpid [] pid2);
  children := List.filter (fun p -> p <> pid2) !children

let test_flight_dump_survives_kill9 () =
  (* The flight recorder's whole reason to exist: kill -9 a loaded
     server mid-run, and the last persisted dump must be a complete
     JSON document carrying the spans of recently applied frames and a
     STAT snapshot — readable by the post-mortem path with no help from
     the dead process. *)
  with_obs_here @@ fun () ->
  Fun.protect ~finally:reap_children @@ fun () ->
  let dir = fresh_dir "serve-flight" in
  incr tmp_counter;
  let path = socket_path () in
  let config =
    {
      (Server.default_config ~dir) with
      Server.checkpoint_every = 4;
      drain_per_tick = 64;
      flight = true;
    }
  in
  let spec =
    List.find
      (fun s -> s.Loadgen.l_tenant = "tenant-00" && s.Loadgen.l_stream = "stream-00")
      (small_plan 51).Loadgen.p_specs
  in
  let payloads = Array.of_list (Loadgen.batches spec) in
  let pid = start_server ~obs:true config ~socket:path in
  let client = Client.connect ~socket_path:path ~delay_unit:0.005 () in
  (match
     Client.create_stream client ~tenant:spec.Loadgen.l_tenant
       ~stream:spec.Loadgen.l_stream ~family:spec.Loadgen.l_family ~n:spec.Loadgen.l_n
       ~seed:spec.Loadgen.l_seed
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("create: " ^ m));
  Array.iter
    (fun payload ->
      match
        Client.ingest client ~tenant:spec.Loadgen.l_tenant ~stream:spec.Loadgen.l_stream
          ~payload
      with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("ingest: " ^ m))
    payloads;
  (* The parent traces its sends: every ingest above carried a TCTX
     context whose trace ids the server's apply spans must echo. *)
  (* Ids are 63-bit, beyond double precision; the JSON reader keeps
     them exact, so they compare as int64. *)
  let client_traces =
    List.filter_map
      (fun s ->
        if s.Ds_obs.Trace.name = "client.send" then Some s.Ds_obs.Trace.trace_id else None)
      (Ds_obs.Trace.spans ())
  in
  check_bool "client recorded send spans" true (client_traces <> []);
  (match Client.flush client ~tenant:spec.Loadgen.l_tenant with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("flush: " ^ m));
  Client.close client;
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  children := List.filter (fun p -> p <> pid) !children;
  match Flight.read ~dir with
  | Error m -> Alcotest.failf "no readable flight dump after kill -9: %s" m
  | Ok doc ->
      check_string "flight schema" "flight/v1"
        (Option.value ~default:"" (Option.bind (Json.member "schema" doc) Json.to_str));
      check_bool "dump sequence positive" true
        (match Option.bind (Json.member "seq" doc) Json.to_int with
        | Some s -> s >= 1
        | None -> false);
      let spans =
        Option.value ~default:[] (Option.bind (Json.member "spans" doc) Json.to_list)
      in
      let apply_traces =
        List.filter_map
          (fun sp ->
            match Option.bind (Json.member "name" sp) Json.to_str with
            | Some "serve.apply" -> (
                match Json.member "trace_id" sp with Some (Json.Int id) -> Some id | _ -> None)
            | _ -> None)
          spans
      in
      check_bool "dump holds applied-frame spans" true (apply_traces <> []);
      (* Cross-process stitch: the dead server's apply spans carry the
         live client's trace ids. *)
      check_bool "apply spans stitch into client traces" true
        (List.for_all (fun tid -> List.mem tid client_traces) apply_traces);
      check_string "embedded stats snapshot" "serve_stats/v1"
        (Option.value ~default:""
           (Option.bind
              (Option.bind (Json.member "stats" doc) (Json.member "schema"))
              Json.to_str))

(* One request on a fresh admin connection: send [request], then read
   until the server closes.  A reset after the reply counts as the close
   (the server may shut a connection whose input it stopped reading), and
   a read that waits longer than 5 s fails the test. *)
let admin_exchange path request =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  let sent = ref 0 in
  while !sent < String.length request do
    sent := !sent + Unix.write_substring fd request !sent (String.length request - !sent)
  done;
  let reply = Buffer.create 256 and buf = Bytes.create 4096 in
  let rec read () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes reply buf 0 n;
        read ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.failf "admin socket: no reply and no close within 5 s (got %d bytes)"
          (Buffer.length reply)
  in
  read ();
  Buffer.contents reply

let test_admin_head_bounded () =
  (* A request head that never ends must not hold the select loop: past
     8 KiB the admin plane answers 431 and closes, and the same loop
     still serves a new admin request and acks ingest. *)
  Fun.protect ~finally:reap_children @@ fun () ->
  let dir = fresh_dir "serve-admin" in
  incr tmp_counter;
  let path = socket_path () in
  let admin = path ^ ".admin" in
  let pid = start_server ~admin (Server.default_config ~dir) ~socket:path in
  let refused = admin_exchange admin (String.make 65536 'a') in
  check_bool "unterminated 64 KiB head refused with 431" true
    (String.starts_with ~prefix:"HTTP/1.0 431 " refused);
  let health = admin_exchange admin "GET /healthz HTTP/1.0\r\n\r\n" in
  check_bool "healthz answers afterwards" true
    (String.starts_with ~prefix:"HTTP/1.0 200 OK" health
    && String.ends_with ~suffix:"\r\n\r\nok\n" health);
  let client = Client.connect ~socket_path:path ~delay_unit:0.005 () in
  (match
     Client.create_stream client ~tenant:"t" ~stream:"s" ~family:"count_sketch" ~n:64 ~seed:3
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("create: " ^ m));
  (match
     Client.ingest client ~tenant:"t" ~stream:"s"
       ~payload:(mk_payload ~family:"count_sketch" ~n:64 ~seed:3 [ (1, 1) ])
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("ingest after the refused head: " ^ m));
  Client.close client;
  Unix.kill pid Sys.sigterm;
  ignore (Unix.waitpid [] pid);
  children := List.filter (fun p -> p <> pid) !children

let test_flight_read_rejects_foreign_json () =
  (* Parseable JSON that is not a flight dump — an array, or the
     serve_stats/v1 rollup a dump embeds — must not pass the post-mortem
     as an all-zero report. *)
  let dir = fresh_dir "serve-flight-foreign" in
  List.iter
    (fun (label, text) ->
      Ds_util.Durable.write_atomic ~path:(Flight.path ~dir) text;
      check_bool label true (Result.is_error (Flight.read ~dir)))
    [
      ("array rejected", "[1,2]");
      ("serve_stats/v1 rejected", {|{"schema":"serve_stats/v1","tenants":[]}|});
    ]

let () =
  Alcotest.run "serve"
    [
      ( "framing",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "negative length rejected" `Quick test_frame_negative_rejected;
          Alcotest.test_case "oversized length rejected" `Quick test_frame_oversized_rejected;
          QCheck_alcotest.to_alcotest prop_reader_chunking;
          QCheck_alcotest.to_alcotest prop_reader_garbage;
        ] );
      ( "sframe",
        [
          Alcotest.test_case "roundtrip" `Quick test_sframe_roundtrip;
          QCheck_alcotest.to_alcotest prop_sframe_corruption_detected;
          Alcotest.test_case "trace context roundtrip" `Quick test_srv1_trace_roundtrip;
          Alcotest.test_case "untraced golden bytes" `Quick test_srv1_untraced_golden_bytes;
        ] );
      ( "conn faults",
        [
          Alcotest.test_case "stateless draws" `Quick test_conn_draw_deterministic;
          Alcotest.test_case "fault shapes" `Quick test_conn_apply_shapes;
        ] );
      ( "registry",
        [
          Alcotest.test_case "quota admission" `Quick test_registry_quota;
          Alcotest.test_case "sequence watermark" `Quick test_registry_watermark;
          Alcotest.test_case "idempotent create" `Quick test_registry_create_idempotent;
        ] );
      ("backpressure", [ Alcotest.test_case "bounded queue" `Quick test_server_backpressure ]);
      ( "observability",
        [
          Alcotest.test_case "stat rollup through core" `Quick test_stat_rollup_through_core;
          Alcotest.test_case "tenant gauges top-k" `Quick test_tenant_gauges_top_k;
          Alcotest.test_case "trace context stitches apply" `Quick
            test_trace_context_stitches_apply;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "newest generation wins" `Quick test_recovery_prefers_newest;
          QCheck_alcotest.to_alcotest prop_torn_generation_quarantined;
          Alcotest.test_case "tmp quarantined, numbers not reused" `Quick
            test_tmp_file_quarantined;
          Alcotest.test_case "event log bounded" `Quick test_event_log_bounded;
        ] );
      ( "kill -9",
        [
          Alcotest.test_case "clean sim" `Quick test_sim_clean_run;
          Alcotest.test_case "backpressure fires" `Quick test_sim_backpressure_fires;
          Alcotest.test_case "conn faults heal" `Quick test_sim_conn_faults_heal;
          Alcotest.test_case "seeded kill -9 sweep" `Quick test_sim_kill9_sweep;
          Alcotest.test_case "deterministic replay" `Quick test_sim_deterministic_replay;
        ] );
      ( "socket",
        [
          Alcotest.test_case "end to end with SIGKILL" `Quick test_socket_end_to_end;
          Alcotest.test_case "reply larger than the send buffer" `Quick
            test_large_reply_partial_writes;
          Alcotest.test_case "live resync keeps undurable suffix" `Quick
            test_resync_keeps_undurable_suffix;
          Alcotest.test_case "flight dump survives kill -9" `Quick
            test_flight_dump_survives_kill9;
          Alcotest.test_case "flight read rejects foreign JSON" `Quick
            test_flight_read_rejects_foreign_json;
          Alcotest.test_case "admin head bounded" `Quick test_admin_head_bounded;
        ] );
    ]
