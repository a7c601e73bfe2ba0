(* serve-zipf: the sketch service end to end.  `dynospan serve` runs in its
   own process with its shipped defaults (telemetry and flight recorder
   on, a checkpoint every 64 applied frames); this process holds one
   synchronous Client and drives a Loadgen plan closed-loop: ingest every
   frame, flush, read every AGM/connectivity stream repeatedly, kill -9,
   time restarts on the same store, then Loadgen.verify.  The only
   workload where SRV1, the LSK1 codec, Words add on absorb, checkpoint
   fsync and recovery do the work; the server hashes nothing. *)

open Ds_util
module Client = Ds_serve.Client
module Loadgen = Ds_serve.Loadgen
module Sframe = Ds_serve.Sframe
module Packed = Ds_sketch.Linear_sketch.Packed
module Agm = Ds_agm.Agm_sketch
module Conn = Ds_agm.Connectivity

type size = {
  tenants : int;
  streams : int;
  updates : int;
  n : int;
  batch : int;
  restarts : int;
}

let full = { tenants = 8; streams = 4; updates = 80_000; n = 32; batch = 16; restarts = 5 }
let smoke = { tenants = 2; streams = 3; updates = 1_200; n = 24; batch = 8; restarts = 2 }

(* Family order puts the cheap families on the heavy Zipf ranks, so the
   AGM/connectivity frames are the ~18% bulk class. *)
let families = [ "count_sketch"; "l0_sampler"; "ams_f2"; "sparsify1p"; "agm"; "connectivity" ]
let is_bulk s = s.Loadgen.l_family = "agm" || s.Loadgen.l_family = "connectivity"

(* ---- the server process --------------------------------------------- *)

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec du p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR -> Array.fold_left (fun a e -> a + du (Filename.concat p e)) 0 (Sys.readdir p)
  | _ -> (Unix.lstat p).Unix.st_size

(* One server run directory: socket, admin socket, store, logs.  Paths
   stay relative so the socket path fits sockaddr_un wherever the
   checkout lives. *)
type server = {
  dir : string;
  socket : string;
  admin : string option;
  store : string;
  mutable pid : int;
  mutable starts : int;
}

let log_of s i = Filename.concat s.dir (Printf.sprintf "serve-%d.log" i)

let spawn ~dynospan s =
  s.starts <- s.starts + 1;
  let args =
    [ dynospan; "serve"; "--socket"; s.socket; "--dir"; s.store ]
    @ match s.admin with Some a -> [ "--admin-socket"; a ] | None -> []
  in
  let out = Unix.openfile (log_of s s.starts) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process dynospan (Array.of_list args) null out out in
  Unix.close out;
  Unix.close null;
  s.pid <- pid

let kill9 s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid)

let write_all fd str =
  let rec go off =
    if off < String.length str then
      go (off + Unix.write_substring fd str off (String.length str - off))
  in
  go 0

(* Blocks until the server on [socket] answers one Stats RPC: how
   set-up and every restart detect a live server. *)
let first_rpc socket =
  let deadline = Unix.gettimeofday () +. 60.0 in
  let request = Sframe.frame (Sframe.encode_request Sframe.Stats) in
  let rec attempt () =
    if Unix.gettimeofday () > deadline then failwith "perfbench: server did not come up";
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        Unix.sleepf 0.0005;
        attempt ()
    | () ->
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            write_all fd request;
            let reader = Ds_serve.Frame_reader.create () in
            let buf = Bytes.create 4096 in
            let rec read () =
              match Ds_serve.Frame_reader.next reader with
              | Ok (Some payload) -> payload
              | Ok None ->
                  let k = Unix.read fd buf 0 (Bytes.length buf) in
                  if k = 0 then failwith "perfbench: server closed before answering";
                  Ds_serve.Frame_reader.feed reader (Bytes.sub_string buf 0 k);
                  read ()
              | Error _ -> failwith "perfbench: bad frame from server"
            in
            match Sframe.decode_response (read ()) with
            | Ok (Sframe.Stats_reply _) -> ()
            | _ -> failwith "perfbench: unexpected reply to Stats")
  in
  attempt ()

(* The recovery walk time the server logs at start-up. *)
let recovery_walk_ms s =
  let ic = open_in (log_of s s.starts) in
  let rec scan () =
    match input_line ic with
    | line -> (
        try
          Scanf.sscanf line
            "serve: recovered %_d tenant(s), %_d stream(s), %_d quarantined, %_d degraded \
             copies in %f ms"
            Fun.id
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> scan ())
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* GET [path] over the admin socket (HTTP/1.0: the server closes). *)
let admin_get socket path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      write_all fd (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path);
      let b = Buffer.create 65536 and buf = Bytes.create 65536 in
      let rec read () =
        let k = Unix.read fd buf 0 (Bytes.length buf) in
        if k > 0 then begin
          Buffer.add_subbytes b buf 0 k;
          read ()
        end
      in
      read ();
      let s = Buffer.contents b in
      let rec body i =
        if i + 4 > String.length s then failwith "perfbench: malformed admin reply"
        else if String.sub s i 4 = "\r\n\r\n" then String.sub s (i + 4) (String.length s - i - 4)
        else body (i + 1)
      in
      body 0)

let json_exn s = match Json.parse s with Ok j -> j | Error m -> failwith ("perfbench: " ^ m)
let num path j = Option.value ~default:nan (Option.bind (Json.path path j) Json.to_float)

(* The span list and the spans_dropped count of a ds_obs/v1 report, the
   spans parsed at full 64-bit id precision: each inline span object is
   one Trace_tree JSONL line. *)
let report_spans report =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length report then failwith "perfbench: report without spans"
      else if String.sub report i n = sub then i
      else go (i + 1)
    in
    go from
  in
  let lo = find "\"spans\":[" 0 + 9 in
  let tail = "],\"spans_dropped\":" in
  let hi = find tail lo in
  let dropped =
    let from = hi + String.length tail in
    Scanf.sscanf (String.sub report from (String.length report - from)) "%d" Fun.id
  in
  let body = String.sub report lo (hi - lo) in
  let b = Buffer.create (String.length body) in
  String.iteri
    (fun i c ->
      if c = ',' && i > 0 && body.[i - 1] = '}' then Buffer.add_char b '\n'
      else Buffer.add_char b c)
    body;
  (Ds_obs.Trace_tree.parse_jsonl (Buffer.contents b), dropped)

(* The server's ring keeps its last 4096 spans (dynospan serve does not
   resize it) and it records one serve.apply per frame, so the traced run
   drains the ring every [drain_every] frames and keeps spans by id.  A
   span overwritten before any drain read it fails the run, as an
   overflow of this process's own ring does. *)
let drain_every = 1024

let drain admin (seen : (int64, Ds_obs.Trace.span) Hashtbl.t) =
  let spans, dropped = report_spans (admin_get admin "/json") in
  List.iter (fun (sp : Ds_obs.Trace.span) -> Hashtbl.replace seen sp.span_id sp) spans;
  if Hashtbl.length seen < dropped + List.length spans then
    failwith "perfbench: the server's span ring overflowed between drains"

(* ---- reads ------------------------------------------------------------ *)

(* A client-side mirror of one bulk stream: reset, absorb the queried
   envelope, decode connectivity. *)
type reader = { spec : Loadgen.stream_spec; packed : Packed.t; decode : unit -> int * int64 }

let reader spec =
  let n = spec.Loadgen.l_n and seed = spec.Loadgen.l_seed in
  match spec.Loadgen.l_family with
  | "agm" ->
      let made = Result.get_ok (Ds_serve.Families.make ~family:"agm" ~n ~seed) in
      let agm = Option.get made.Ds_serve.Families.agm in
      {
        spec;
        packed = made.Ds_serve.Families.packed;
        decode =
          (fun () ->
            let forest =
              Ds_obs.Trace.with_span "bench.agm_sketch.spanning_forest" (fun () ->
                  Agm.spanning_forest agm)
            in
            (List.length forest, Harness.digest_edges forest));
      }
  | _ ->
      let c = Conn.create (Prng.create seed) ~n ~params:(Agm.default_params ~n) in
      {
        spec;
        packed = Packed.pack (module Conn.Linear) c;
        decode =
          (fun () ->
            let comps =
              Ds_obs.Trace.with_span "bench.connectivity.freeze" (fun () ->
                  Conn.components (Conn.freeze c))
            in
            (n - comps, Int64.of_int comps));
      }

(* Forest edges a correct decode must report: n minus the components of
   the stream's final graph (every Loadgen delta is positive). *)
let expected_forest spec =
  let n = spec.Loadgen.l_n in
  let uf = Ds_graph.Union_find.create n in
  Array.iter
    (fun (index, _) ->
      let u, v = Ds_graph.Edge_index.decode ~n index in
      ignore (Ds_graph.Union_find.union uf u v))
    spec.Loadgen.l_updates;
  n - Ds_graph.Union_find.num_classes uf

let read client r =
  Ds_obs.Trace.with_span "bench.read" (fun () ->
      let st =
        Ds_obs.Trace.with_span "bench.client.query" (fun () ->
            Client.query client ~tenant:r.spec.Loadgen.l_tenant ~stream:r.spec.Loadgen.l_stream)
      in
      match st with
      | Error m -> Error m
      | Ok st -> (
          let absorbed =
            Ds_obs.Trace.with_span "bench.linear_sketch.absorb" (fun () ->
                Packed.reset r.packed;
                Packed.absorb_result r.packed st.Client.payload)
          in
          match absorbed with
          | Error _ -> Error "absorb failed"
          | Ok () -> Ok (r.decode ())))

(* ---- the workload ------------------------------------------------------ *)

let run ~smoke:is_smoke ~seed ~seconds ~trace ~dynospan ~scratch =
  let sz = if is_smoke then smoke else full in
  let counter = ref 0 in
  let fresh_server () =
    incr counter;
    let dir = Filename.concat scratch (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !counter) in
    rm_rf dir;
    mkdir_p dir;
    {
      dir;
      socket = Filename.concat dir "s";
      admin = (if trace then Some (Filename.concat dir "a") else None);
      store = Filename.concat dir "store";
      pid = -1;
      starts = 0;
    }
  in
  let live = ref [] in
  let teardown (s, client) =
    Client.close client;
    kill9 s;
    rm_rf s.dir;
    live := List.filter (fun x -> x != s) !live
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun s ->
          kill9 s;
          rm_rf s.dir)
        !live)
  @@ fun () ->
  (* Set-up: the plan, client-side sketching of every frame, server
     start on a fresh store and create_stream for every stream. *)
  let setup () =
    let plan =
      Loadgen.make ~families ~zipf:1.1 ~seed ~tenants:sz.tenants ~streams_per_tenant:sz.streams
        ~updates:sz.updates ~n:sz.n ~batch:sz.batch ()
    in
    let payloads =
      Array.of_list (List.map (fun s -> Array.of_list (Loadgen.batches s)) plan.Loadgen.p_specs)
    in
    let s = fresh_server () in
    live := s :: !live;
    spawn ~dynospan s;
    first_rpc s.socket;
    let client = Client.connect ~socket_path:s.socket () in
    List.iter
      (fun spec ->
        match
          Client.create_stream client ~tenant:spec.Loadgen.l_tenant ~stream:spec.Loadgen.l_stream
            ~family:spec.Loadgen.l_family ~n:spec.Loadgen.l_n ~seed:spec.Loadgen.l_seed
        with
        | Ok _ -> ()
        | Error m -> failwith ("perfbench: create_stream: " ^ m))
      plan.Loadgen.p_specs;
    (plan, payloads, (s, client))
  in
  let discard (_, _, sc) = teardown sc in
  let (plan, payloads, (server, client)), before =
    Harness.setups ~discard ~warmup:true ~times:2 setup
  in
  let specs = Array.of_list plan.Loadgen.p_specs in
  let bulk = Array.map is_bulk specs in
  let tenants =
    List.sort_uniq compare (Array.to_list (Array.map (fun s -> s.Loadgen.l_tenant) specs))
  in
  let t_start = Harness.now_ns () in
  if trace then Harness.start_tracing ();
  (* Ingest: closed loop, round-robin across streams as Loadgen.run does.
     In the traced run even frames of each stream are traced and odd
     ones not, which gives the tracing overhead. *)
  let acked = Array.make (Array.length specs) 0 in
  let failed = ref 0 and acked_updates = ref 0 in
  let small_ms = ref [] and bulk_ms = ref [] and pairs = ref [] in
  let cursor = Array.make (Array.length specs) 0 in
  let total = Array.fold_left (fun a p -> a + Array.length p) 0 payloads in
  let remaining = ref total in
  let server_seen = Hashtbl.create 8192 in
  let t_ingest = Harness.now_ns () in
  while !remaining > 0 do
    Array.iteri
      (fun i spec ->
        let c = cursor.(i) in
        if c < Array.length payloads.(i) then begin
          cursor.(i) <- c + 1;
          decr remaining;
          let traced = trace && c land 1 = 0 in
          Ds_obs.Trace.set_enabled traced;
          let r, ms =
            Harness.timed_ms (fun () ->
                Ds_obs.Trace.with_span "bench.client.ingest" (fun () ->
                    Client.ingest client ~tenant:spec.Loadgen.l_tenant
                      ~stream:spec.Loadgen.l_stream ~payload:payloads.(i).(c)))
          in
          Ds_obs.Trace.set_enabled false;
          if trace && (total - !remaining) mod drain_every = 0 then
            drain (Option.get server.admin) server_seen;
          match r with
          | Ok () ->
              acked.(i) <- acked.(i) + 1;
              acked_updates :=
                !acked_updates
                + min sz.batch (Array.length spec.Loadgen.l_updates - (c * sz.batch));
              if bulk.(i) then bulk_ms := ms :: !bulk_ms else small_ms := ms :: !small_ms;
              if trace then pairs := (traced, bulk.(i), ms) :: !pairs
          | Error _ -> incr failed
        end)
      specs
  done;
  let ingest_s = Harness.s_since t_ingest in
  let retries = Client.retries client in
  (* Flush every tenant; the checkpoint layer's cost is the median over
     tenants the flush actually had to write (a checkpoint lag, read from
     the STAT rollup in the traced run). *)
  let dirty =
    if not trace then []
    else
      match Json.member "tenants" (json_exn (Result.get_ok (Client.stat client))) with
      | Some (Json.Obj kv) ->
          List.filter_map
            (fun (name, t) -> if num [ "checkpoint_lag" ] t > 0.0 then Some name else None)
            kv
      | _ -> []
  in
  let flush_ms =
    List.filter_map
      (fun tenant ->
        let (), ms =
          Harness.timed_ms (fun () ->
              match Client.flush client ~tenant with
              | Ok _ -> ()
              | Error m -> failwith ("perfbench: flush: " ^ m))
        in
        if List.mem tenant dirty then Some ms else None)
      tenants
  in
  (* Reads fill the rest of the measured time: every bulk stream in
     turn, at least three rounds, the heap settled between rounds.  The
     first round is the warm-up: checked, not timed. *)
  let readers = List.map reader (List.filter is_bulk plan.Loadgen.p_specs) in
  let first_reads = Hashtbl.create 16 in
  let read_ms = ref [] and read_failed = ref 0 and read_mismatch = ref 0 and reads = ref 0 in
  let rounds = ref 0 and server_rss = ref nan in
  while !rounds < 3 || Harness.s_since t_start < seconds do
    (* Peak RSS after ingest, flush and one read of every stream: a fixed
       amount of work, whatever the run length. *)
    if !rounds = 1 then server_rss := Harness.peak_rss_mb (Some server.pid);
    incr rounds;
    Harness.settle ();
    List.iter
      (fun r ->
        Ds_obs.Trace.set_enabled trace;
        let out, ms = Harness.timed_ms (fun () -> read client r) in
        Ds_obs.Trace.set_enabled false;
        incr reads;
        match out with
        | Error _ -> incr read_failed
        | Ok v -> (
            if !rounds > 1 then read_ms := ms :: !read_ms;
            let key = (r.spec.Loadgen.l_tenant, r.spec.Loadgen.l_stream) in
            match Hashtbl.find_opt first_reads key with
            | None -> Hashtbl.replace first_reads key v
            | Some v0 -> if v <> v0 then incr read_mismatch))
      readers
  done;
  let forests_ok =
    List.for_all
      (fun r ->
        match Hashtbl.find_opt first_reads (r.spec.Loadgen.l_tenant, r.spec.Loadgen.l_stream) with
        | Some (edges, _) -> edges = expected_forest r.spec
        | None -> false)
      readers
  in
  let output_edges =
    Hashtbl.fold (fun _ (edges, _) a -> a + edges) first_reads 0
  in
  let words =
    match Client.stats client with
    | Ok (_, _, _, w) -> w
    | Error m -> failwith ("perfbench: stats: " ^ m)
  in
  let all_spans = if trace then Harness.take_spans () else [] in
  let stat, server_spans =
    if trace then begin
      drain (Option.get server.admin) server_seen;
      (Some (json_exn (Result.get_ok (Client.stat client))), Hashtbl.to_seq_values server_seen)
    end
    else (None, Seq.empty)
  in
  let notes =
    match Option.bind stat (Json.member "nacks") with
    | Some j -> [ "server nacks by kind: " ^ Json.to_string j ]
    | None -> []
  in
  let store_bytes = du server.store in
  (* kill -9, then timed restarts on the same store. *)
  let recovery = ref [] and walks = ref [] in
  for _ = 1 to sz.restarts do
    let t0 = Harness.now_ns () in
    kill9 server;
    spawn ~dynospan server;
    first_rpc server.socket;
    recovery := Harness.s_since t0 :: !recovery;
    walks := recovery_walk_ms server :: !walks
  done;
  let ledger =
    Array.to_list (Array.mapi (fun i s -> Loadgen.ledger_line s ~acked:acked.(i)) specs)
  in
  let checked, mismatches = Loadgen.verify client plan ~ledger_lines:ledger in
  let verified = checked = Array.length specs && mismatches = [] in
  teardown (server, client);
  let last, after = Harness.setups ~discard ~warmup:false ~times:2 setup in
  discard last;
  let ack_ms = !small_ms @ !bulk_ms in
  let layer_metrics () =
    (* Client spans plus the server's serve.apply spans that parent under
       them over TCTX; the server's untraced-frame roots are left out. *)
    let ids = Hashtbl.create 4096 in
    List.iter (fun (sp : Ds_obs.Trace.span) -> Hashtbl.replace ids sp.span_id ()) all_spans;
    let applies =
      List.of_seq
        (Seq.filter
           (fun (sp : Ds_obs.Trace.span) -> sp.name = "serve.apply" && Hashtbl.mem ids sp.parent_id)
           server_spans)
    in
    let tbl = Harness.rollup (all_spans @ applies) in
    let apply_of = Hashtbl.create 4096 in
    List.iter
      (fun (sp : Ds_obs.Trace.span) -> Hashtbl.replace apply_of sp.parent_id sp.dur_ns)
      applies;
    let transport =
      List.filter_map
        (fun (sp : Ds_obs.Trace.span) ->
          if sp.name <> "client.send" then None
          else
            Option.map
              (fun apply -> Int64.to_float (Int64.sub sp.dur_ns apply) /. 1e6)
              (Hashtbl.find_opt apply_of sp.span_id))
        all_spans
    in
    let stat = Option.get stat in
    let nacks =
      match Json.member "nacks" stat with
      | Some (Json.Obj kv) ->
          List.fold_left (fun a (_, v) -> a +. Option.value ~default:0.0 (Json.to_float v)) 0.0 kv
      | _ -> 0.0
    in
    let generations =
      match Json.member "tenants" stat with
      | Some (Json.Obj kv) -> List.fold_left (fun a (_, t) -> a +. num [ "generation" ] t) 0.0 kv
      | _ -> nan
    in
    (* Benchmark-timed codec layers on this run's own frames. *)
    let frames =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun i s ->
                Array.to_list
                  (Array.mapi
                     (fun c payload ->
                       Sframe.encode_request
                         (Sframe.Ingest
                            {
                              tenant = s.Loadgen.l_tenant;
                              stream = s.Loadgen.l_stream;
                              seq = c + 1;
                              payload;
                            }))
                     payloads.(i)))
              specs))
    in
    let decode_us =
      Harness.median
        (List.init 3 (fun _ ->
             let (), ms =
               Harness.timed_ms (fun () ->
                   List.iter
                     (fun f ->
                       match Sframe.decode_request f with
                       | Ok _ -> ()
                       | Error m -> failwith ("perfbench: decode_request: " ^ m))
                     frames)
             in
             ms *. 1e3 /. float_of_int (List.length frames)))
    in
    let mirrors =
      Array.map
        (fun s ->
          (Result.get_ok
             (Ds_serve.Families.make ~family:s.Loadgen.l_family ~n:s.Loadgen.l_n
                ~seed:s.Loadgen.l_seed))
            .Ds_serve.Families.packed)
        specs
    in
    let absorb i payload =
      snd
        (Harness.timed_ms (fun () ->
             match Packed.absorb_result mirrors.(i) payload with
             | Ok () -> ()
             | Error _ -> failwith "perfbench: absorb failed"))
    in
    let bulk_absorb = ref [] and small_absorb = ref [] in
    Array.iteri
      (fun i ps ->
        Array.iteri
          (fun c p ->
            if bulk.(i) then (if c < 4 then bulk_absorb := absorb i p :: !bulk_absorb)
            else small_absorb := absorb i p :: !small_absorb)
          ps)
      payloads;
    let serialize_ms =
      List.concat_map
        (fun r ->
          List.init 2 (fun _ ->
              snd (Harness.timed_ms (fun () -> ignore (Packed.serialize r.packed)))))
        readers
    in
    (* Per class (small, bulk), the median traced ack over the median
       untraced one, weighted by the class's frame count: medians, because
       the inline checkpoints land on frames of one parity. *)
    let class_median traced bulk_class =
      Harness.median
        (List.filter_map
           (fun (t, b, ms) -> if t = traced && b = bulk_class then Some ms else None)
           !pairs)
    in
    let weighted traced =
      List.fold_left
        (fun a (ms, b) -> a +. (float_of_int (List.length ms) *. class_median traced b))
        0.0
        [ (!small_ms, false); (!bulk_ms, true) ]
    in
    let roots = [ "bench.client.ingest"; "bench.read" ] in
    let layers =
      [
        "client.send";
        "bench.client.query";
        "bench.linear_sketch.absorb";
        "bench.agm_sketch.spanning_forest";
        "bench.connectivity.freeze";
      ]
    in
    let forest_ms =
      List.filter_map
        (fun (sp : Ds_obs.Trace.span) ->
          if sp.name = "bench.agm_sketch.spanning_forest" then
            Some (Int64.to_float sp.dur_ns /. 1e6)
          else None)
        all_spans
    in
    Harness.
      [
        metric ~samples:(List.length forest_ms) "agm_sketch.spanning_forest_ms" "ms"
          (median forest_ms);
        metric ~samples:(int_of_float (num [ "ingest"; "count" ] stat)) "server.apply_p50_ms" "ms"
          (num [ "ingest"; "p50" ] stat /. 1e6);
        metric ~samples:(int_of_float (num [ "ingest"; "count" ] stat)) "server.apply_p99_ms" "ms"
          (num [ "ingest"; "p99" ] stat /. 1e6);
        metric ~samples:(List.length transport) "client.transport_p50_ms" "ms" (median transport);
        metric ~samples:(List.length frames) "sframe.decode_us" "us" decode_us;
        metric ~samples:(List.length !bulk_absorb) "linear_sketch.absorb_ms_bulk" "ms"
          (median !bulk_absorb);
        metric ~samples:(List.length !small_absorb) "linear_sketch.absorb_us_small" "us"
          (sum !small_absorb *. 1e3 /. float_of_int (max 1 (List.length !small_absorb)));
        metric ~samples:(List.length serialize_ms) "linear_sketch.serialize_ms_bulk" "ms"
          (median serialize_ms);
        metric ~samples:(List.length flush_ms) "checkpoint.flush_ms" "ms" (median flush_ms);
        metric "checkpoint.generations" "count" generations;
        metric "checkpoint.store_bytes" "bytes" (float_of_int store_bytes);
        metric ~samples:(List.length !walks) "server.recovery_walk_ms" "ms" (median !walks);
        metric "client.retries" "count" (float_of_int retries);
        metric "server.nacks" "count" nacks;
        metric ~samples:(List.length ack_ms) "unattributed_frac" "ratio"
          (unattributed tbl ~roots ~layers);
        metric ~samples:(List.length !pairs) "trace_overhead_frac" "ratio"
          ((weighted true /. weighted false) -. 1.0);
      ]
  in
  let frames = List.length ack_ms in
  {
    Harness.e2e =
      Harness.
        [
          setup_metric (before @ after);
          metric ~samples:(List.length !read_ms) "job_p50_ms" "ms" (median !read_ms);
          metric ~samples:frames "ingest_ups" "updates/s" (float_of_int !acked_updates /. ingest_s);
          metric ~samples:(List.length readers) "output_edges" "edges" (float_of_int output_edges);
          metric "sketch_words" "words" (float_of_int words);
          metric "peak_rss_mb" "MB" !server_rss;
        ];
    extra =
      Harness.
        [
          metric ~samples:frames "ack_p50_ms" "ms" (median ack_ms);
          metric ~samples:frames "ack_p99_ms" "ms" (quantile 0.99 ack_ms);
          metric ~samples:(List.length !small_ms) "ack_p50_ms_small" "ms" (median !small_ms);
          metric ~samples:(List.length !bulk_ms) "ack_p50_ms_bulk" "ms" (median !bulk_ms);
          metric ~samples:(List.length !read_ms) "query_p50_ms" "ms" (median !read_ms);
          metric ~samples:(List.length !recovery) "recovery_s" "s" (median !recovery);
        ];
    layers = (if trace then layer_metrics () else []);
    checks =
      Harness.
        [
          check "every frame acked" (!failed = 0)
            (Printf.sprintf "%d of %d failed" !failed (frames + !failed));
          check "reads decode n - components forest edges" forests_ok
            (Printf.sprintf "%d streams, %d edges" (List.length readers) output_edges);
          check "repeated reads reproduce the first read" (!read_failed + !read_mismatch = 0)
            (Printf.sprintf "%d failed, %d differ of %d" !read_failed !read_mismatch !reads);
          check "Loadgen.verify bit-identical after kill -9 and restarts" verified
            (Printf.sprintf "%d of %d streams checked, %d mismatches" checked (Array.length specs)
               (List.length mismatches));
        ];
    attempted = frames + !failed + !reads + sz.restarts + Array.length specs;
    failed =
      !failed + !read_failed + !read_mismatch
      + (if forests_ok then 0 else 1)
      + List.length mismatches + (Array.length specs - checked);
    inputs =
      (let b = Buffer.create 65536 in
       Array.iter
         (fun s ->
           Printf.bprintf b "%s %d:" s.Loadgen.l_family s.Loadgen.l_seed;
           Array.iter (fun (i, d) -> Printf.bprintf b "%d %d;" i d) s.Loadgen.l_updates)
         specs;
       Wire.fnv1a64 (Buffer.contents b));
    notes;
  }
