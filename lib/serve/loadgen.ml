open Ds_util
open Ds_sketch

(* The workload is a pure function of its seed: stream sizes are drawn
   from a Zipf profile (rank-r stream gets weight 1/r^s of the update
   budget), update indices/deltas come from a per-stream PRNG split, and
   families cycle through the registry's catalogue.  The socket driver,
   the deterministic simulator and the verifier all rebuild the same
   plan from the same seed — verification needs no side channel beyond
   the seed and the acked-frame ledger. *)

type stream_spec = {
  l_tenant : string;
  l_stream : string;
  l_family : string;
  l_n : int;
  l_seed : int;
  l_updates : (int * int) array;  (* (index, delta) *)
  l_batch : int;
}

type plan = { p_seed : int; p_specs : stream_spec list }

let zipf_weights ~count ~exponent =
  let w = Array.init count (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) exponent) in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

let make ?(families = Families.names) ?(zipf = 1.1) ~seed ~tenants ~streams_per_tenant
    ~updates ~n ~batch () =
  let root = Prng.create seed in
  let count = tenants * streams_per_tenant in
  let weights = zipf_weights ~count ~exponent:zipf in
  let specs = ref [] in
  let rank = ref 0 in
  for ti = 0 to tenants - 1 do
    let tenant = Printf.sprintf "tenant-%02d" ti in
    for si = 0 to streams_per_tenant - 1 do
      let r = !rank in
      incr rank;
      let stream = Printf.sprintf "stream-%02d" si in
      let family = List.nth families (r mod List.length families) in
      let rng = Prng.split_named root (Printf.sprintf "%s/%s" tenant stream) in
      let m = max batch (int_of_float (Float.round (float_of_int updates *. weights.(r)))) in
      let l_updates =
        Array.init m (fun _ ->
            let index = Prng.int rng n in
            let delta = 1 + Prng.int rng 8 in
            (index, delta))
      in
      specs :=
        {
          l_tenant = tenant;
          l_stream = stream;
          l_family = family;
          l_n = n;
          l_seed = seed lxor (r * 0x9E3779B9);
          l_updates;
          l_batch = batch;
        }
        :: !specs
    done
  done;
  { p_seed = seed; p_specs = List.rev !specs }

let frame_count spec = (Array.length spec.l_updates + spec.l_batch - 1) / spec.l_batch

(* Ingest payloads: each frame is the LSK1 envelope of a scratch sketch
   holding one batch of updates; the server folds frames in by
   linearity, so the sum over frames equals direct application. *)
let batches spec =
  match Families.make ~family:spec.l_family ~n:spec.l_n ~seed:spec.l_seed with
  | Error m -> invalid_arg ("Loadgen.batches: " ^ m)
  | Ok made ->
      let scratch = made.Families.packed in
      let total = Array.length spec.l_updates in
      List.init (frame_count spec) (fun b ->
          Linear_sketch.Packed.reset scratch;
          let lo = b * spec.l_batch in
          let hi = min total (lo + spec.l_batch) in
          for i = lo to hi - 1 do
            let index, delta = spec.l_updates.(i) in
            Linear_sketch.Packed.update scratch ~index ~delta
          done;
          Linear_sketch.Packed.serialize scratch)

(* The envelope the server must hold after absorbing the first [frames]
   batches — bit-identical, not approximately equal: both sides run the
   same seeded sketch, and merging batch envelopes is the same linear
   map as applying the updates directly. *)
let expected_envelope ?frames spec =
  match Families.make ~family:spec.l_family ~n:spec.l_n ~seed:spec.l_seed with
  | Error m -> invalid_arg ("Loadgen.expected_envelope: " ^ m)
  | Ok made ->
      let mirror = made.Families.packed in
      let total = Array.length spec.l_updates in
      let upto =
        match frames with
        | None -> total
        | Some f -> min total (f * spec.l_batch)
      in
      for i = 0 to upto - 1 do
        let index, delta = spec.l_updates.(i) in
        Linear_sketch.Packed.update mirror ~index ~delta
      done;
      Linear_sketch.Packed.serialize mirror

(* Ledger line: tenant stream acked_frames fnv1a64-of-expected-envelope.
   Written by the driver after every ack so a kill -9 of the *client*
   also leaves a consistent ledger prefix. *)
let ledger_line spec ~acked =
  Printf.sprintf "%s %s %d %016Lx" spec.l_tenant spec.l_stream acked
    (Wire.fnv1a64 (expected_envelope ~frames:acked spec))

let parse_ledger_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ tenant; stream; acked; h ] -> (
      match (int_of_string_opt acked, Int64.of_string_opt ("0x" ^ h)) with
      | Some a, Some hv -> Some (tenant, stream, a, hv)
      | _ -> None)
  | _ -> None

type outcome = {
  o_acked_frames : int;
  o_failed_frames : int;
  o_retries : int;
  o_reconnects : int;
  o_backoff : float;
  o_lat : Ds_obs.Quantile.summary;
      (* client-observed wall time per acked ingest RPC, ns — measured
         with an ungated Quantile sketch, so honest p99/p999 come out
         of a fixed-memory accumulator instead of a sample array *)
}

(* Drive the plan through a socket client round-robin across streams, so
   every tenant's queue fills concurrently and backpressure is actually
   exercised.  [ledger] receives one line per stream after each ack. *)
let run client plan ~ledger =
  let specs = Array.of_list plan.p_specs in
  let payloads = Array.map (fun s -> Array.of_list (batches s)) specs in
  let acked = Array.make (Array.length specs) 0 in
  let failed = ref 0 in
  Array.iter
    (fun spec ->
      match
        Client.create_stream client ~tenant:spec.l_tenant ~stream:spec.l_stream
          ~family:spec.l_family ~n:spec.l_n ~seed:spec.l_seed
      with
      | Ok _ -> ()
      | Error m ->
          invalid_arg
            (Printf.sprintf "loadgen: create %s/%s: %s" spec.l_tenant spec.l_stream m))
    specs;
  let remaining = ref (Array.fold_left (fun a p -> a + Array.length p) 0 payloads) in
  let cursor = Array.make (Array.length specs) 0 in
  let lat = Ds_obs.Quantile.make () in
  let write_ledger i =
    match ledger with
    | None -> ()
    | Some oc ->
        output_string oc (ledger_line specs.(i) ~acked:acked.(i));
        output_char oc '\n';
        flush oc
  in
  while !remaining > 0 do
    Array.iteri
      (fun i spec ->
        let c = cursor.(i) in
        if c < Array.length payloads.(i) then begin
          cursor.(i) <- c + 1;
          decr remaining;
          let t0 = Ds_obs.Clock.now_ns () in
          match
            Client.ingest client ~tenant:spec.l_tenant ~stream:spec.l_stream
              ~payload:payloads.(i).(c)
          with
          | Ok () ->
              Ds_obs.Quantile.observe lat
                (Int64.to_int (Ds_obs.Clock.elapsed_ns t0));
              acked.(i) <- acked.(i) + 1;
              write_ledger i
          | Error _ -> incr failed
        end)
      specs
  done;
  (* Acked is a promise to this process only: the server may still hold
     the suffix in volatile state, and once we exit nobody retains the
     payloads to replay after a crash.  Flush every tenant so that at
     exit acked implies durable — the ledger then survives any later
     kill -9 of the server. *)
  let tenants = List.sort_uniq compare (List.map (fun s -> s.l_tenant) plan.p_specs) in
  List.iter
    (fun tenant ->
      match Client.flush client ~tenant with
      | Ok _ -> ()
      | Error m -> invalid_arg (Printf.sprintf "loadgen: flush %s: %s" tenant m))
    tenants;
  {
    o_acked_frames = Array.fold_left ( + ) 0 acked;
    o_failed_frames = !failed;
    o_retries = Client.retries client;
    o_reconnects = Client.reconnects client;
    o_backoff = Client.backoff_total client;
    o_lat = Ds_obs.Quantile.summarize lat;
  }

(* Verification: rebuild the plan from its seed, query every stream, and
   demand the server's envelope be bit-identical to the mirror at the
   acked watermark recorded in the ledger. *)
let verify client plan ~ledger_lines =
  let by_key = Hashtbl.create 16 in
  List.iter
    (fun line ->
      match parse_ledger_line line with
      | Some (tenant, stream, a, h) -> Hashtbl.replace by_key (tenant, stream) (a, h)
      | None -> ())
    ledger_lines;
  let mismatches = ref [] and checked = ref 0 in
  List.iter
    (fun spec ->
      match Hashtbl.find_opt by_key (spec.l_tenant, spec.l_stream) with
      | None -> ()
      | Some (acked_frames, ledger_hash) -> (
          incr checked;
          let fail fmt =
            Printf.ksprintf
              (fun m ->
                mismatches :=
                  Printf.sprintf "%s/%s: %s" spec.l_tenant spec.l_stream m :: !mismatches)
              fmt
          in
          match Client.query client ~tenant:spec.l_tenant ~stream:spec.l_stream with
          | Error m -> fail "query: %s" m
          | Ok st ->
              if st.Client.applied_seq < acked_frames then
                fail "applied %d < acked %d (dropped acked updates!)" st.Client.applied_seq
                  acked_frames
              else begin
                let expected = expected_envelope ~frames:st.Client.applied_seq spec in
                if st.Client.payload <> expected then
                  fail "envelope differs from mirror at frame %d" st.Client.applied_seq;
                let eh = Wire.fnv1a64 (expected_envelope ~frames:acked_frames spec) in
                if eh <> ledger_hash then
                  fail "ledger hash %016Lx <> mirror %016Lx" ledger_hash eh
              end))
    plan.p_specs;
  (!checked, List.rev !mismatches)
