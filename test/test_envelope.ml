(* The four checksummed binary formats (LSK1 sketches, TPS1 pass-1
   checkpoints, SRV1 frames, SCP1 generations) pinned byte for byte, and
   their readers held total: whatever bytes arrive, a reader answers
   [Ok] or a typed [Error], never an exception.  The JSON reader under
   the post-mortem and serve-stats is held to the same, with its
   allocation bounded per input byte. *)

open Ds_util
open Ds_sketch
open Ds_serve
module TPS = Ds_core.Two_pass_spanner

let check_string = Alcotest.(check string)

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let ctx = { Ds_obs.Trace.trace_id = 0x0123_4567_89ab_cdefL; span_id = 0x7edc_ba98_7654_3210L }

(* ------------------------------------------------------------------ *)
(* Byte pins                                                           *)
(* ------------------------------------------------------------------ *)

(* The committed golden fixtures pin untraced LSK1 and the SRV1 tests pin
   two untraced requests; these pins cover the rest of each format: the
   TCTX extension, every response kind, the TPS1 checkpoint and the SCP1
   generation layout.  A change to any of them is a wire-format change:
   old checkpoints and old peers would stop reading the new bytes. *)

let lsk1_sketch ?(updates = 5) ?(seed = 7) fam =
  let (Linear_families.F f) = fam in
  let t = f.make () in
  let (module L) = f.impl in
  Linear_families.apply_stream f.impl t
    (Linear_families.update_stream ~count:updates ~dim:(L.dim t) seed);
  Linear_sketch.Packed.pack f.impl t

let test_lsk1_traced () =
  check_string "one_sparse, traced"
    "084c534b31146f6e655f73706172736502c80106317370c80108c606b6cdfa8d070854435458efcdab89674523011032547698badc7e2962066567ab7d57"
    (hex
       (Linear_sketch.Packed.serialize ~trace:ctx
          (lsk1_sketch (Linear_families.find "one_sparse"))))

let test_srv1_traced_ingest () =
  check_string "ingest, traced"
    "08535256310402740273020478790854435458efcdab89674523011032547698badc7e02c88b7528829677"
    (hex
       (Sframe.encode_request ~trace:ctx
          (Sframe.Ingest { tenant = "t"; stream = "s"; seq = 1; payload = "xy" })))

(* Kind numbers, then message and bytes; kind 71 is retired. *)
let srv1_responses =
  [
    (64, Sframe.Created { words = 5 }, "085352563180010a3a3fb327bfa8c314");
    (65, Sframe.Ack { seq = 3; durable_seq = 2 }, "08535256318201060458d611c9bf6aa6bb");
    ( 66,
      Sframe.Nack { seq = 4; reason = Sframe.Bad_seq { expected = 2; got = 4 } },
      "08535256318401080c0408d0a0eedaf169e318" );
    ( 67,
      Sframe.State
        {
          payload = "p";
          applied_seq = 7;
          copies_total = 3;
          copies_lost = 1;
          certified_delta = 0.25;
        },
      "0853525631860102700e0602000000000000d03ff709d8faa9a825df" );
    (68, Sframe.Seqs { applied_seq = 9; durable_seq = 8 }, "0853525631880112101e89fdc38db6fcfb");
    (69, Sframe.Flushed { generation = 2 }, "08535256318a01045a42a3f6bed424be");
    ( 70,
      Sframe.Stats_reply { tenants = 1; streams = 2; applied_frames = 3; words = 4 },
      "08535256318c0102040608503d186628744974" );
    (72, Sframe.Stat_rollup_reply { json = "{}" }, "08535256319001047b7dd4052b5cdf27c79e");
  ]

let test_srv1_responses () =
  List.iter
    (fun (kind, r, want) ->
      check_string
        (Printf.sprintf "response kind %d" kind)
        want
        (hex (Sframe.encode_response r)))
    srv1_responses

let scp1_records =
  [
    {
      Checkpoint.r_stream = "s0";
      r_family = "agm";
      r_n = 16;
      r_seed = 5;
      r_applied_seq = 12;
      r_parts = [ "ab"; "cde" ];
    };
    {
      Checkpoint.r_stream = "s1";
      r_family = "f0";
      r_n = 100;
      r_seed = 6;
      r_applied_seq = 3;
      r_parts = [ "xyz" ];
    };
  ]

let scp1_generation () = Checkpoint.encode ~generation:3 ~tenant:"t" scp1_records

let test_scp1_generation () =
  check_string "generation 3, two records"
    "0853435031060274040473300661676d200a18040406047331046630c8010c060206b7e900cb20bae9d8616263646578797a"
    (hex (scp1_generation ()))

let tps1_n = 24
let tps1_params = TPS.default_params ~k:2

let tps1_stream =
  lazy
    (let rng = Prng.create 31 in
     let g = Ds_graph.Gen.connected_gnp (Prng.split rng) ~n:tps1_n ~p:0.15 in
     Ds_stream.Stream_gen.with_churn (Prng.split rng) ~decoys:60 g)

let tps1_checkpoint =
  lazy (TPS.checkpoint (Prng.create 32) ~n:tps1_n ~params:tps1_params (Lazy.force tps1_stream))

let test_tps1_checkpoint () =
  let ck = Lazy.force tps1_checkpoint in
  check_string "n=24 k=2: length and FNV-1a-64" "4482 2d84c7650fba5f42"
    (Printf.sprintf "%d %016Lx" (String.length ck) (Wire.fnv1a64 ck))

(* ------------------------------------------------------------------ *)
(* Totality under resealed mutation                                    *)
(* ------------------------------------------------------------------ *)

(* Random damage is caught by the checksum before any parser runs, so it
   never reaches the field readers.  Re-sealing the damaged bytes with a
   valid FNV-1a-64 does: every reader must then still map whatever its
   parsers hit to a typed error.  JSON has no checksum, so its damage is
   left unsealed. *)

let le64 v =
  let b = Wire.sink () in
  Wire.write_fixed64 b v;
  Wire.contents b

(* A message is [covered · checksum(covered) · rest]: [rest] is empty
   except for SCP1, whose header checksum sits before the raw parts. *)
let sealed ~rest body = body ^ le64 (Wire.fnv1a64 body) ^ rest

(* [reseal] rebuilds a whole message around damaged [covered] bytes. *)
let damage rng ~reseal covered =
  let whole = reseal covered in
  let n = String.length covered in
  let random_bytes k = String.init k (fun _ -> Char.chr (Prng.int rng 256)) in
  let at () = Prng.int rng (max 1 n) in
  let edit f =
    let b = Bytes.of_string covered in
    if n > 0 then f b;
    Bytes.to_string b
  in
  match Prng.int rng 9 with
  | 0 -> random_bytes (Prng.int rng 80)
  | 1 -> reseal (String.sub covered 0 (at ()) ^ random_bytes (Prng.int rng 40))
  | 2 -> String.sub whole 0 (Prng.int rng (String.length whole))
  | 3 -> reseal (String.sub covered 0 (at ()))
  | 4 -> reseal (edit (fun b -> Bytes.set b (at ()) (Char.chr (Prng.int rng 256))))
  | 5 ->
      reseal
        (edit (fun b ->
             let i = at () in
             Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int rng 8)))))
  | 6 ->
      let i = at () in
      reseal (String.sub covered 0 i ^ random_bytes 1 ^ String.sub covered i (n - i))
  | 7 ->
      let i = at () in
      if n = 0 then reseal covered
      else reseal (String.sub covered 0 i ^ String.sub covered (i + 1) (n - i - 1))
  | _ ->
      reseal
        (edit (fun b ->
             for _ = 1 to 1 + Prng.int rng 4 do
               Bytes.set b (at ()) (Char.chr (Prng.int rng 256))
             done))

let tail_sealed msg = String.sub msg 0 (String.length msg - 8)

let srv1_requests =
  let payload =
    Linear_sketch.Packed.serialize (lsk1_sketch (Linear_families.find "count_sketch"))
  in
  [
    Sframe.Create { tenant = "t"; stream = "s"; family = "agm"; n = 16; seed = 3 };
    Sframe.Ingest { tenant = "t"; stream = "s"; seq = 4; payload };
    Sframe.Query { tenant = "t"; stream = "s" };
    Sframe.Seq_query { tenant = "t"; stream = "s" };
    Sframe.Flush { tenant = "t" };
    Sframe.Stats;
    Sframe.Stat_rollup;
  ]

let srv1_messages =
  List.concat_map
    (fun r -> [ Sframe.encode_request r; Sframe.encode_request ~trace:ctx r ])
    srv1_requests
  @ List.map (fun (_, r, _) -> Sframe.encode_response r) srv1_responses

let families = Array.of_list Linear_families.all

(* The two documents the JSON reader is fed in production: the
   serve_stats/v1 rollup of a server holding two tenants, one ingest
   applied and one refused, and the flight/v1 dump that embeds it,
   written with telemetry on so that its span, metric and quantile
   sections are filled. *)
let json_documents =
  lazy
    (let dir = Filename.temp_dir "envelope-json" "" in
     Ds_obs.Export.enable ();
     let server =
       Server.create
         { (Server.default_config ~dir) with Server.flight = true; checkpoint_every = 1_000_000 }
     in
     let conn = Server.connect server in
     let send r = Server.feed server conn (Sframe.frame (Sframe.encode_request r)) in
     let payload =
       match Families.make ~family:"count_sketch" ~n:64 ~seed:3 with
       | Ok made ->
           Linear_sketch.Packed.update made.Families.packed ~index:5 ~delta:2;
           Linear_sketch.Packed.serialize made.Families.packed
       | Error m -> failwith m
     in
     List.iter
       (fun tenant ->
         send (Sframe.Create { tenant; stream = "s"; family = "count_sketch"; n = 64; seed = 3 });
         send (Sframe.Ingest { tenant; stream = "s"; seq = 1; payload }))
       [ "t0"; "t1" ];
     send (Sframe.Ingest { tenant = "t0"; stream = "s"; seq = 2; payload = "junk" });
     Server.drain server;
     Server.checkpoint_now server;
     let stats = Json.to_string (Server.stat_json server) in
     let flight = In_channel.with_open_bin (Flight.path ~dir) In_channel.input_all in
     Ds_obs.Export.disable ();
     Ds_obs.Export.reset ();
     let rec remove path =
       if Sys.is_directory path then begin
         Array.iter (fun e -> remove (Filename.concat path e)) (Sys.readdir path);
         Sys.rmdir path
       end
       else Sys.remove path
     in
     remove dir;
     [| stats; flight |])

(* Json.parse's allocated words per input byte, an input shorter than 64
   bytes charged as 64 so that the fixed cost of a call does not
   dominate.  The worst case over this property's inputs measured 6.9; a
   reader that allocates out of proportion to its input (an array sized
   by a length field it has not checked) exceeds it many times over. *)
let json_words_per_byte = 12.0

(* Minor words, plus the words of blocks too large for the minor heap,
   which go straight to the major heap (promoted words cancel out).
   [Gc.minor_words] rather than the minor count of [Gc.counters] or
   [Gc.allocated_bytes], which read about 8x low on OCaml 5.1. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

exception Over_allocation of string

(* One case: pick a reader, build an intact message for it, damage it,
   and decode.  On a raise (or, for JSON, an allocation over the bound),
   returns the reader, what went wrong and the damaged bytes. *)
let run_case (pick, seed) =
  let rng = Prng.create seed in
  let reader, covered, reseal, decode =
    if pick < 50 then begin
      let fam = families.(seed mod Array.length families) in
      let sk = lsk1_sketch ~updates:(1 + Prng.int rng 40) ~seed fam in
      let trace = if Prng.bool rng then Some ctx else None in
      let msg = Linear_sketch.Packed.serialize ?trace sk in
      ( "LSK1 " ^ Linear_families.name fam,
        tail_sealed msg,
        sealed ~rest:"",
        fun data ->
          ignore (Linear_sketch.Packed.deserialize_result (Linear_families.pack fam) data) )
    end
    else if pick < 80 then begin
      let msg = List.nth srv1_messages (seed mod List.length srv1_messages) in
      ( "SRV1",
        tail_sealed msg,
        sealed ~rest:"",
        fun data ->
          ignore (Sframe.decode_request_traced data);
          ignore (Sframe.decode_response data) )
    end
    else if pick < 97 then begin
      let msg = scp1_generation () in
      let parts =
        String.concat "" (List.concat_map (fun r -> r.Checkpoint.r_parts) scp1_records)
      in
      let header = String.length msg - String.length parts - 8 in
      ( "SCP1",
        String.sub msg 0 header,
        sealed ~rest:parts,
        fun data -> ignore (Checkpoint.decode data) )
    end
    else if pick < 100 then begin
      ( "TPS1",
        tail_sealed (Lazy.force tps1_checkpoint),
        sealed ~rest:"",
        fun data ->
          ignore
            (TPS.resume_result (Prng.create 32) ~n:tps1_n ~params:tps1_params ~checkpoint:data
               (Lazy.force tps1_stream)) )
    end
    else begin
      let docs = Lazy.force json_documents in
      ( "JSON",
        docs.(seed mod Array.length docs),
        Fun.id,
        fun data ->
          let before = allocated_words () in
          let r = Json.parse data in
          let words = allocated_words () -. before in
          ignore (Sys.opaque_identity r);
          if words > json_words_per_byte *. float_of_int (max 64 (String.length data)) then
            raise
              (Over_allocation
                 (Printf.sprintf "allocated %.0f words for %d bytes (limit %.0f per byte)"
                    words (String.length data) json_words_per_byte)) )
    end
  in
  let data = damage rng ~reseal covered in
  match decode data with
  | () -> None
  | exception Over_allocation m -> Some (reader, m, data)
  | exception e -> Some (reader, "raised " ^ Printexc.to_string e, data)

let prop_readers_total =
  QCheck.Test.make ~name:"readers total under resealed mutation" ~count:3600
    QCheck.(pair (int_bound 119) (int_bound 1_000_000))
    (fun case ->
      match run_case case with
      | None -> true
      | Some (reader, problem, data) ->
          QCheck.Test.fail_reportf "%s reader %s on %s" reader problem (hex data))

let () =
  Alcotest.run "envelope"
    [
      ( "pins",
        [
          Alcotest.test_case "LSK1 traced" `Quick test_lsk1_traced;
          Alcotest.test_case "SRV1 traced ingest" `Quick test_srv1_traced_ingest;
          Alcotest.test_case "SRV1 responses 64-72" `Quick test_srv1_responses;
          Alcotest.test_case "TPS1 checkpoint" `Quick test_tps1_checkpoint;
          Alcotest.test_case "SCP1 generation" `Quick test_scp1_generation;
        ] );
      ("totality", [ QCheck_alcotest.to_alcotest prop_readers_total ]);
    ]
