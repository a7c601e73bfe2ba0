open Ds_util

type config = {
  dir : string;
  quota_words : int;
  queue_bound : int;
  drain_per_tick : int;
  checkpoint_every : int;
  retention : int;
  tenant_gauges : int;
  flight : bool;
}

let default_config ~dir =
  {
    dir;
    quota_words = 4_000_000;
    queue_bound = 256;
    drain_per_tick = 128;
    checkpoint_every = 256;
    retention = 2;
    tenant_gauges = 8;
    flight = false;
  }

type conn = {
  cid : int;
  reader : Frame_reader.t;
  out : Buffer.t;  (* responses not yet taken for sending *)
  mutable sending : string;  (* taken from [out] in one piece; "" when idle *)
  mutable sent : int;  (* bytes of [sending] already written *)
  mutable alive : bool;
}

type pending = {
  p_conn : conn;
  p_tenant : string;
  p_stream : string;
  p_seq : int;
  p_payload : string;
  p_arrival : int64;
  p_ctx : Ds_obs.Trace.context option;
      (* sender's span, carried in the frame's TCTX extension *)
}

(* Per-tenant observability rollup: an ungated NACK taxonomy (plain
   ints — the select loop is single-threaded) plus a gated latency
   quantile sketch.  The table is capped at [tenant_stats_cap]
   distinct tenants; later arrivals share the ["!overflow"] slot
   (['!'] fails {!Registry.name_ok}, so no real tenant can collide
   with it). *)
type tstat = {
  ts_lat : Ds_obs.Quantile.t;
  ts_nacks : int array;
}

let tenant_stats_cap = 64
let overflow_tenant = "!overflow"
let n_nack_kinds = Array.length Sframe.nack_kinds

type recovery_report = {
  r_tenants : int;
  r_streams : int;
  r_quarantined : int;  (** generations + torn tmp files quarantined *)
  r_degraded_copies : int;
  r_ns : int64;
}

(* Registry handles, looked up when a server is created so that a
   program that never creates one exports none of them.  A name already
   registered returns its existing handle: servers in one process share
   their counters. *)
type meters = {
  m_frames : Ds_obs.Metrics.counter;
  m_applied : Ds_obs.Metrics.counter;
  m_duplicate : Ds_obs.Metrics.counter;
  q_latency : Ds_obs.Quantile.t;
      (* the STAT rollup needs an honest p99/p999 *)
  m_queue_depth : Ds_obs.Metrics.gauge;
  m_stat : Ds_obs.Metrics.counter;
  m_ckpt : Ds_obs.Metrics.counter;
  m_ckpt_lag : Ds_obs.Metrics.gauge;
  m_quarantined : Ds_obs.Metrics.counter;
  m_degraded : Ds_obs.Metrics.counter;
  m_nack : Ds_obs.Metrics.counter array;  (* indexed by {!Sframe.nack_index} *)
}

let meters () =
  {
    m_frames = Ds_obs.Metrics.counter "serve.ingest.frames";
    m_applied = Ds_obs.Metrics.counter "serve.ingest.applied";
    m_duplicate = Ds_obs.Metrics.counter "serve.ingest.duplicate";
    q_latency = Ds_obs.Quantile.quantile "serve.ingest.latency_ns";
    m_queue_depth = Ds_obs.Metrics.gauge "serve.queue.depth";
    m_stat = Ds_obs.Metrics.counter "serve.stat.requests";
    m_ckpt = Ds_obs.Metrics.counter "serve.checkpoint.generations";
    m_ckpt_lag = Ds_obs.Metrics.gauge "serve.checkpoint.lag_frames";
    m_quarantined = Ds_obs.Metrics.counter "serve.checkpoint.quarantined";
    m_degraded = Ds_obs.Metrics.counter "serve.recovery.degraded_copies";
    m_nack = Array.map (fun k -> Ds_obs.Metrics.counter ("serve.nack." ^ k)) Sframe.nack_kinds;
  }

type t = {
  config : config;
  meters : meters;
  registry : Registry.t;
  queue : pending Queue.t;
  mutable applied_since_checkpoint : int;
  mutable next_conn_id : int;
  mutable events : string list;  (* newest first, at most [max_events] *)
  mutable recovery : recovery_report;
  tstats : (string, tstat) Hashtbl.t;
  nack_totals : int array;  (* global taxonomy, ungated *)
  mutable overloaded : bool;  (* true between overload onset and relief *)
  mutable gauged : string list;  (* tenants currently held as registry gauges *)
  mutable flight : Flight.t option;
}

let take n l =
  let rec go n = function x :: tl when n > 0 -> x :: go (n - 1) tl | _ -> [] in
  go n l

(* The event log is what a flight dump shows; a long-running server
   keeps only its newest entries. *)
let max_events = 64
let event t fmt = Printf.ksprintf (fun m -> t.events <- take max_events (m :: t.events)) fmt
let events t = List.rev t.events
let recovery_report t = t.recovery
let registry t = t.registry
let config t = t.config

(* ------------------------------------------------------------------ *)
(* Live observability: per-tenant rollups, STAT document, flight       *)
(* ------------------------------------------------------------------ *)

let tstat_for t tenant =
  match Hashtbl.find_opt t.tstats tenant with
  | Some s -> s
  | None ->
      let key =
        if Hashtbl.length t.tstats < tenant_stats_cap then tenant
        else overflow_tenant
      in
      (match Hashtbl.find_opt t.tstats key with
      | Some s -> s
      | None ->
          let s =
            {
              ts_lat = Ds_obs.Quantile.make ~gated:true ();
              ts_nacks = Array.make n_nack_kinds 0;
            }
          in
          Hashtbl.replace t.tstats key s;
          s)

let total_lag t =
  let lag = ref 0 in
  Registry.iter_tenants t.registry (fun tn -> lag := !lag + Registry.checkpoint_lag tn);
  !lag

let empty_summary =
  {
    Ds_obs.Quantile.s_count = 0;
    s_sum = 0;
    s_p50 = Float.nan;
    s_p90 = Float.nan;
    s_p99 = Float.nan;
    s_p999 = Float.nan;
  }

(* Tenants by measured footprint, heaviest first (name-ascending among
   ties so the ordering — and every export derived from it — is
   deterministic). *)
let tenants_by_words t =
  let tenants = ref [] in
  Registry.iter_tenants t.registry (fun tn -> tenants := tn :: !tenants);
  List.sort
    (fun (a : Registry.tenant) (b : Registry.tenant) ->
      compare (b.Registry.words, a.Registry.t_name) (a.Registry.words, b.Registry.t_name))
    !tenants

let nacks_json counts =
  Json.Obj
    (List.filteri (fun i _ -> counts.(i) > 0)
       (Array.to_list (Array.mapi (fun i kind -> (kind, Json.int counts.(i))) Sframe.nack_kinds)))

let ingest_json q = Ds_obs.Quantile.summary_json (Ds_obs.Quantile.summarize q)

(* The [serve_stats/v1] document: global queue/backpressure state,
   totals, NACK taxonomy and ingest quantiles, plus a per-tenant
   rollup bounded at [tenant_stats_cap] heaviest tenants (the rest are
   aggregated under [tenants_omitted]) — this is where per-tenant
   numbers live now that registry gauges only track the top-K. *)
let stat_json t =
  let all = tenants_by_words t in
  let shown = take tenant_stats_cap all in
  let omitted = List.length all - List.length shown in
  let omitted_words =
    if omitted = 0 then 0
    else
      List.fold_left (fun acc tn -> acc + tn.Registry.words) 0 all
      - List.fold_left (fun acc tn -> acc + tn.Registry.words) 0 shown
  in
  let tenants_total, streams_total, frames_total, words_total =
    Registry.stats t.registry
  in
  let tenant_json (tn : Registry.tenant) =
    let applied = ref 0 and durable = ref 0 in
    Hashtbl.iter
      (fun _ (s : Registry.stream) ->
        applied := !applied + s.Registry.applied_seq;
        durable := !durable + s.Registry.durable_seq)
      tn.Registry.streams;
    let ingest, nacks =
      match Hashtbl.find_opt t.tstats tn.Registry.t_name with
      | Some ts -> (ingest_json ts.ts_lat, nacks_json ts.ts_nacks)
      | None -> (Ds_obs.Quantile.summary_json empty_summary, Json.Obj [])
    in
    ( tn.Registry.t_name,
      Json.Obj
        [
          ("words", Json.int tn.Registry.words);
          ("quota_words", Json.int (Registry.quota_words t.registry));
          ("streams", Json.int (Hashtbl.length tn.Registry.streams));
          ("generation", Json.int tn.Registry.generation);
          ("applied_frames", Json.int !applied);
          ("durable_frames", Json.int !durable);
          ("checkpoint_lag", Json.int (Registry.checkpoint_lag tn));
          ("ingest", ingest);
          ("nacks", nacks);
        ] )
  in
  let overflow =
    match Hashtbl.find_opt t.tstats overflow_tenant with
    | Some ts ->
        [
          ( "overflow",
            Json.Obj [ ("ingest", ingest_json ts.ts_lat); ("nacks", nacks_json ts.ts_nacks) ] );
        ]
    | None -> []
  in
  Json.Obj
    ([
       ("schema", Json.Str "serve_stats/v1");
       ("observability", Json.Bool (Ds_obs.Metrics.enabled ()));
       ( "queue",
         Json.Obj
           [
             ("depth", Json.int (Queue.length t.queue));
             ("bound", Json.int t.config.queue_bound);
             ("overloaded", Json.Bool t.overloaded);
           ] );
       ( "totals",
         Json.Obj
           [
             ("tenants", Json.int tenants_total);
             ("streams", Json.int streams_total);
             ("applied_frames", Json.int frames_total);
             ("words", Json.int words_total);
             ("quota_words", Json.int (Registry.quota_words t.registry));
             ("checkpoint_lag", Json.int (total_lag t));
           ] );
       ("nacks", nacks_json t.nack_totals);
       ("ingest", ingest_json t.meters.q_latency);
       ( "flight",
         Json.Obj
           [
             ("armed", Json.Bool (t.flight <> None));
             ("dumps", Json.int (match t.flight with Some f -> Flight.dumps f | None -> 0));
           ] );
       ("tenants", Json.Obj (List.map tenant_json shown));
       ( "tenants_omitted",
         Json.Obj [ ("count", Json.int omitted); ("words", Json.int omitted_words) ] );
     ]
    @ overflow)

let flight_dump t reason =
  match t.flight with
  | None -> ()
  | Some f ->
      Flight.dump f ~reason ~stats:(stat_json t) ~events:t.events

(* ------------------------------------------------------------------ *)
(* Durability                                                          *)
(* ------------------------------------------------------------------ *)

let checkpoint_tenant t (tn : Registry.tenant) =
  let generation = max tn.Registry.generation tn.Registry.max_gen_seen + 1 in
  let records = Registry.records_of_tenant tn in
  Checkpoint.write ~dir:t.config.dir ~tenant:tn.Registry.t_name ~generation records;
  Registry.mark_durable tn ~generation;
  Checkpoint.prune ~dir:t.config.dir ~tenant:tn.Registry.t_name ~keep:t.config.retention;
  Ds_obs.Metrics.incr t.meters.m_ckpt 1;
  event t "checkpoint: tenant %s generation %d (%d streams, %d words)" tn.Registry.t_name
    generation
    (Hashtbl.length tn.Registry.streams)
    tn.Registry.words;
  generation

(* Keep registry gauges for only the [tenant_gauges] heaviest tenants,
   evicting names that fell out of the top-K ({!Metrics.unregister}):
   the registry and the Prometheus export stay bounded no matter how
   many tenant names pass through.  Everyone else is still visible in
   the STAT rollup. *)
let refresh_tenant_gauges t =
  if Ds_obs.Metrics.enabled () then begin
    let top = take t.config.tenant_gauges (tenants_by_words t) in
    let top_names = List.map (fun (tn : Registry.tenant) -> tn.Registry.t_name) top in
    List.iter
      (fun name ->
        if not (List.mem name top_names) then
          Ds_obs.Metrics.unregister ("serve.tenant.words." ^ name))
      t.gauged;
    List.iter
      (fun (tn : Registry.tenant) ->
        Ds_obs.Metrics.set
          (Ds_obs.Metrics.gauge ("serve.tenant.words." ^ tn.Registry.t_name))
          tn.Registry.words)
      top;
    t.gauged <- top_names
  end

let checkpoint_now t =
  List.iter (fun tn -> ignore (checkpoint_tenant t tn)) (Registry.dirty_tenants t.registry);
  t.applied_since_checkpoint <- 0;
  Ds_obs.Metrics.set t.meters.m_ckpt_lag 0;
  refresh_tenant_gauges t;
  flight_dump t "checkpoint"

let recover t =
  let t0 = Ds_obs.Clock.now_ns () in
  let quarantined = ref 0 and degraded = ref 0 and tenants = ref 0 and streams = ref 0 in
  List.iter
    (fun tenant ->
      let tmp = Checkpoint.quarantine_tmp ~dir:t.config.dir ~tenant in
      if tmp > 0 then begin
        quarantined := !quarantined + tmp;
        event t "quarantine: tenant %s: %d torn tmp file(s) from a crashed writer" tenant tmp
      end;
      let rec try_gens = function
        | [] -> ()
        | g :: older -> (
            let path = Checkpoint.gen_path ~dir:t.config.dir ~tenant ~generation:g in
            let fail reason =
              Checkpoint.quarantine path;
              incr quarantined;
              event t "quarantine: %s: %s" path reason;
              Registry.remove_tenant t.registry tenant;
              try_gens older
            in
            match Checkpoint.read path with
            | Error reason -> fail reason
            | Ok (gen, tenant_in_file, records) ->
                if tenant_in_file <> tenant then fail "tenant name mismatch"
                else begin
                  Registry.remove_tenant t.registry tenant;
                  let rec load lost = function
                    | [] -> Ok lost
                    | r :: rest -> (
                        match Registry.load_record t.registry ~tenant r with
                        | Ok l -> load (lost + l) rest
                        | Error m ->
                            Error (Printf.sprintf "stream %s: %s" r.Checkpoint.r_stream m))
                  in
                  match load 0 records with
                  | Error reason -> fail reason
                  | Ok lost ->
                      let tn = Registry.get_or_add_tenant t.registry tenant in
                      tn.Registry.generation <- gen;
                      tn.Registry.max_gen_seen <- Checkpoint.max_seen ~dir:t.config.dir ~tenant;
                      tn.Registry.dirty <- false;
                      incr tenants;
                      streams := !streams + Hashtbl.length tn.Registry.streams;
                      degraded := !degraded + lost;
                      if lost > 0 then
                        event t
                          "degraded: tenant %s generation %d lost %d AGM cop(ies); serving \
                           certified deltas from the surviving quorum"
                          tenant gen lost;
                      event t "recovered: tenant %s at generation %d (%d streams)" tenant gen
                        (Hashtbl.length tn.Registry.streams)
                end)
      in
      try_gens (Checkpoint.generations ~dir:t.config.dir ~tenant))
    (Checkpoint.tenants ~dir:t.config.dir);
  Ds_obs.Metrics.incr t.meters.m_quarantined !quarantined;
  Ds_obs.Metrics.incr t.meters.m_degraded !degraded;
  t.recovery <-
    {
      r_tenants = !tenants;
      r_streams = !streams;
      r_quarantined = !quarantined;
      r_degraded_copies = !degraded;
      r_ns = Ds_obs.Clock.elapsed_ns t0;
    }

let create config =
  let t =
    {
      config;
      meters = meters ();
      registry = Registry.create ~quota_words:config.quota_words;
      queue = Queue.create ();
      applied_since_checkpoint = 0;
      next_conn_id = 0;
      events = [];
      recovery =
        { r_tenants = 0; r_streams = 0; r_quarantined = 0; r_degraded_copies = 0; r_ns = 0L };
      tstats = Hashtbl.create 16;
      nack_totals = Array.make n_nack_kinds 0;
      overloaded = false;
      gauged = [];
      flight = (if config.flight then Some (Flight.create ~dir:config.dir) else None);
    }
  in
  recover t;
  (* Corruption found on the recovery walk is exactly the moment an
     operator wants a forensic artifact. *)
  if t.recovery.r_quarantined > 0 then flight_dump t "recovery-quarantine";
  t

(* ------------------------------------------------------------------ *)
(* Transport-agnostic request processing                               *)
(* ------------------------------------------------------------------ *)

let connect t =
  let cid = t.next_conn_id in
  t.next_conn_id <- cid + 1;
  {
    cid;
    reader = Frame_reader.create ();
    out = Buffer.create 1024;
    sending = "";
    sent = 0;
    alive = true;
  }

let conn_failed c = (not c.alive) || Frame_reader.failed c.reader <> None

let respond c resp = Buffer.add_string c.out (Sframe.frame (Sframe.encode_response resp))

let nack ?tenant t c ~seq reason =
  let idx = Sframe.nack_index reason in
  Ds_obs.Metrics.incr t.meters.m_nack.(idx) 1;
  t.nack_totals.(idx) <- t.nack_totals.(idx) + 1;
  (match tenant with
  | Some tn ->
      let s = tstat_for t tn in
      s.ts_nacks.(idx) <- s.ts_nacks.(idx) + 1
  | None -> ());
  respond c (Sframe.Nack { seq; reason })

let unsent c = String.length c.sending - c.sent + Buffer.length c.out

let take_output c =
  let pending = String.sub c.sending c.sent (String.length c.sending - c.sent) in
  let s = pending ^ Buffer.contents c.out in
  c.sending <- "";
  c.sent <- 0;
  Buffer.clear c.out;
  s

let pending_depth t = Queue.length t.queue

let handle t c ?ctx (req : Sframe.request) =
  match req with
  | Sframe.Ingest { tenant; stream; seq; payload } ->
      Ds_obs.Metrics.incr t.meters.m_frames 1;
      let depth = Queue.length t.queue in
      if depth >= t.config.queue_bound then begin
        if not t.overloaded then begin
          t.overloaded <- true;
          event t "overload: queue hit bound %d" t.config.queue_bound;
          flight_dump t "overload"
        end;
        nack ~tenant t c ~seq
          (Sframe.Overloaded { queue_depth = depth; bound = t.config.queue_bound })
      end
      else begin
        Queue.add
          {
            p_conn = c;
            p_tenant = tenant;
            p_stream = stream;
            p_seq = seq;
            p_payload = payload;
            p_arrival = Ds_obs.Clock.now_ns ();
            p_ctx = ctx;
          }
          t.queue;
        Ds_obs.Metrics.set t.meters.m_queue_depth (depth + 1)
      end
  | Sframe.Create { tenant; stream; family; n; seed } -> (
      match Registry.create_stream t.registry ~tenant ~stream ~family ~n ~seed with
      | Ok s ->
          respond c
            (Sframe.Created { words = Ds_sketch.Linear_sketch.Packed.space_in_words s.packed })
      | Error reason -> nack ~tenant t c ~seq:(-1) reason)
  | Sframe.Query { tenant; stream } -> (
      match Option.bind (Registry.find_tenant t.registry tenant) (fun tn ->
                Registry.find_stream tn stream)
      with
      | Some s -> respond c (Registry.state s)
      | None -> nack ~tenant t c ~seq:(-1) Sframe.Unknown_stream)
  | Sframe.Seq_query { tenant; stream } -> (
      match Option.bind (Registry.find_tenant t.registry tenant) (fun tn ->
                Registry.find_stream tn stream)
      with
      | Some s ->
          respond c
            (Sframe.Seqs { applied_seq = s.Registry.applied_seq; durable_seq = s.Registry.durable_seq })
      | None -> nack ~tenant t c ~seq:(-1) Sframe.Unknown_stream)
  | Sframe.Flush { tenant } -> (
      match Registry.find_tenant t.registry tenant with
      | Some tn ->
          let generation =
            if tn.Registry.dirty then checkpoint_tenant t tn else tn.Registry.generation
          in
          respond c (Sframe.Flushed { generation })
      | None -> nack ~tenant t c ~seq:(-1) Sframe.Unknown_stream)
  | Sframe.Drop_copies { tenant; stream; copies } -> (
      match Option.bind (Registry.find_tenant t.registry tenant) (fun tn ->
                Registry.find_stream tn stream)
      with
      | Some s ->
          let lost = Registry.drop_copies s copies in
          event t "degraded: tenant %s stream %s marked %d cop(ies) lost" tenant stream lost;
          respond c (Sframe.Dropped { copies_lost = lost })
      | None -> nack ~tenant t c ~seq:(-1) Sframe.Unknown_stream)
  | Sframe.Stats ->
      let tenants, streams, applied_frames, words = Registry.stats t.registry in
      respond c (Sframe.Stats_reply { tenants; streams; applied_frames; words })
  | Sframe.Stat_rollup ->
      Ds_obs.Metrics.incr t.meters.m_stat 1;
      respond c (Sframe.Stat_rollup_reply { json = Json.to_string (stat_json t) })

let feed t c bytes =
  Frame_reader.feed c.reader bytes;
  let rec loop () =
    match Frame_reader.next c.reader with
    | Error e ->
        (* Length-prefix poisoned: the stream cannot resynchronise. *)
        event t "conn %d: dropped: %s" c.cid (Wire.frame_error_to_string e);
        c.alive <- false
    | Ok None -> ()
    | Ok (Some payload) ->
        (match Sframe.decode_request_traced payload with
        | Ok (req, ctx) -> handle t c ?ctx req
        | Error m -> nack t c ~seq:(-1) (Sframe.Bad_frame m));
        loop ()
  in
  if c.alive then loop ()

let apply_one t (p : pending) =
  match
    Option.bind (Registry.find_tenant t.registry p.p_tenant) (fun tn ->
        Registry.find_stream tn p.p_stream)
  with
  | None ->
      if p.p_conn.alive then
        nack ~tenant:p.p_tenant t p.p_conn ~seq:p.p_seq Sframe.Unknown_stream
  | Some s -> (
      match Registry.apply s ~seq:p.p_seq ~payload:p.p_payload with
      | Ok applied ->
          (match applied with
          | Registry.Applied ->
              (Registry.get_or_add_tenant t.registry p.p_tenant).Registry.dirty <- true;
              t.applied_since_checkpoint <- t.applied_since_checkpoint + 1;
              Ds_obs.Metrics.incr t.meters.m_applied 1
          | Registry.Duplicate -> Ds_obs.Metrics.incr t.meters.m_duplicate 1);
          let dur_ns = Ds_obs.Clock.elapsed_ns p.p_arrival in
          Ds_obs.Quantile.observe t.meters.q_latency (Int64.to_int dur_ns);
          Ds_obs.Quantile.observe (tstat_for t p.p_tenant).ts_lat (Int64.to_int dur_ns);
          (* The frame carried the sender's span context: the apply span
             parents under it, linking client and server traces across
             the process boundary (same shape as sketch.decode under
             LSK1's TCTX). *)
          (match p.p_ctx with
          | Some ctx ->
              Ds_obs.Trace.record_linked "serve.apply" ctx ~start_ns:p.p_arrival
                ~dur_ns
          | None ->
              (* Untraced sender: still a root span, so the flight
                 recorder shows what was applied right before a crash. *)
              Ds_obs.Trace.record "serve.apply" ~start_ns:p.p_arrival ~dur_ns);
          if p.p_conn.alive then
            respond p.p_conn
              (Sframe.Ack { seq = p.p_seq; durable_seq = s.Registry.durable_seq })
      | Error reason ->
          if p.p_conn.alive then
            nack ~tenant:p.p_tenant t p.p_conn ~seq:p.p_seq reason)

let drain t =
  let budget = ref t.config.drain_per_tick in
  while !budget > 0 && not (Queue.is_empty t.queue) do
    apply_one t (Queue.pop t.queue);
    decr budget
  done;
  let depth = Queue.length t.queue in
  (* Overload relief: only clear the flag once the queue has drained to
     half the bound, so a queue oscillating at the bound logs (and
     flight-dumps) one onset, not one per NACK. *)
  if t.overloaded && depth * 2 <= t.config.queue_bound then t.overloaded <- false;
  Ds_obs.Metrics.set t.meters.m_queue_depth depth;
  Ds_obs.Metrics.set t.meters.m_ckpt_lag (total_lag t);
  if t.applied_since_checkpoint >= t.config.checkpoint_every then checkpoint_now t

(* ------------------------------------------------------------------ *)
(* Unix-domain-socket accept/ingest loop                               *)
(* ------------------------------------------------------------------ *)

(* Minimal HTTP/1.0 responder for the optional admin socket: GET
   /stats (STAT rollup), /metrics (Prometheus), /json (full ds_obs/v1
   report), /healthz.  One request per connection, close on flush —
   enough for curl and any Prometheus scraper, with zero parsing state
   beyond the request head. *)
type admin_conn = { a_in : Buffer.t; mutable a_out : string; mutable a_pos : int }

(* The request head, blank line included, must fit in this many bytes;
   a longer one is answered 431 and the connection closed, so one
   admin client cannot grow a buffer without bound. *)
let admin_head_limit = 8192

(* Whether [b] holds a blank line (CRLF CRLF or LF LF) ending at or
   after [from].  A head that was incomplete before a read can only
   complete at a '\n' among the bytes that read added. *)
let head_ends_after b ~from =
  let ends_at i =
    Buffer.nth b i = '\n'
    && i >= 1
    && (Buffer.nth b (i - 1) = '\n'
       || (i >= 3 && Buffer.nth b (i - 1) = '\r' && Buffer.nth b (i - 2) = '\n'
          && Buffer.nth b (i - 3) = '\r'))
  in
  let rec go i = i < Buffer.length b && (ends_at i || go (i + 1)) in
  go from

let http_reply status ctype body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status ctype (String.length body) body

let admin_respond t a =
  let head = Buffer.contents a.a_in in
  let line =
    match String.index_opt head '\r' with
    | Some i -> String.sub head 0 i
    | None -> (
        match String.index_opt head '\n' with
        | Some i -> String.sub head 0 i
        | None -> head)
  in
  let target =
    match String.split_on_char ' ' line with _ :: path :: _ -> path | _ -> "/"
  in
  let status, ctype, body =
    match target with
    | "/stats" -> ("200 OK", "application/json", Json.to_string (stat_json t) ^ "\n")
    | "/metrics" ->
        ("200 OK", "text/plain; version=0.0.4", Ds_obs.Export.prometheus ())
    | "/json" -> ("200 OK", "application/json", Ds_obs.Export.report_json ())
    | "/healthz" -> ("200 OK", "text/plain", "ok\n")
    | _ -> ("404 Not Found", "text/plain", "not found\n")
  in
  a.a_out <- http_reply status ctype body

let stop_requested = ref false

let install_signal_handlers () =
  let h = Sys.Signal_handle (fun _ -> stop_requested := true) in
  (try Sys.set_signal Sys.sigterm h with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint h with Invalid_argument _ -> ());
  (* Writing to a client that vanished must be EPIPE (we close the
     conn), not process death. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let run_unix t ~socket_path ?admin_path ?(tick = 0.02) () =
  stop_requested := false;
  install_signal_handlers ();
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket_path);
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  let admin_listener =
    match admin_path with
    | None -> None
    | Some path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let l = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind l (Unix.ADDR_UNIX path);
        Unix.listen l 16;
        Unix.set_nonblock l;
        Some l
  in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let admins : (Unix.file_descr, admin_conn) Hashtbl.t = Hashtbl.create 8 in
  let close_fd fd =
    (match Hashtbl.find_opt conns fd with
    | Some c -> c.alive <- false
    | None -> ());
    Hashtbl.remove conns fd;
    Hashtbl.remove admins fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let r = t.recovery in
  Fmt.pr "serve: recovered %d tenant(s), %d stream(s), %d quarantined, %d degraded copies in \
          %.1f ms@."
    r.r_tenants r.r_streams r.r_quarantined r.r_degraded_copies
    (Int64.to_float r.r_ns /. 1e6);
  Fmt.pr "serve: listening on %s@." socket_path;
  (match admin_path with
  | Some p -> Fmt.pr "serve: admin plane on %s@." p
  | None -> ());
  Format.pp_print_flush Format.std_formatter ();
  let buf = Bytes.create 65536 in
  (try
     while not !stop_requested do
       let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
       let fds =
         Hashtbl.fold
           (fun fd a acc -> if a.a_out = "" then fd :: acc else acc)
           admins fds
       in
       let fds = match admin_listener with Some l -> l :: fds | None -> fds in
       let writable =
         Hashtbl.fold
           (fun fd c acc -> if unsent c > 0 then fd :: acc else acc)
           conns []
       in
       let writable =
         Hashtbl.fold
           (fun fd a acc ->
             if a.a_out <> "" && a.a_pos < String.length a.a_out then fd :: acc
             else acc)
           admins writable
       in
       let readable, writable, _ =
         try Unix.select (listener :: fds) writable [] tick
         with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
       in
       let accept_into l register =
         let continue = ref true in
         while !continue do
           match Unix.accept l with
           | client, _ ->
               Unix.set_nonblock client;
               register client
           | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
               continue := false
           | exception Unix.Unix_error _ -> continue := false
         done
       in
       List.iter
         (fun fd ->
           if fd = listener then
             accept_into listener (fun client ->
                 Hashtbl.replace conns client (connect t))
           else if admin_listener = Some fd then
             accept_into fd (fun client ->
                 Hashtbl.replace admins client
                   { a_in = Buffer.create 256; a_out = ""; a_pos = 0 })
           else
             match Hashtbl.find_opt conns fd with
             | Some c -> (
                 match Unix.read fd buf 0 (Bytes.length buf) with
                 | 0 -> close_fd fd
                 | n -> feed t c (Bytes.sub_string buf 0 n)
                 | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
                 | exception Unix.Unix_error _ -> close_fd fd)
             | None -> (
                 match Hashtbl.find_opt admins fd with
                 | None -> ()
                 | Some a -> (
                     match Unix.read fd buf 0 (Bytes.length buf) with
                     | 0 -> close_fd fd
                     | n ->
                         (* Respond once the request head is complete;
                            refuse it once it cannot fit the limit. *)
                         let seen = Buffer.length a.a_in in
                         Buffer.add_subbytes a.a_in buf 0
                           (min n (admin_head_limit - seen));
                         if head_ends_after a.a_in ~from:seen then admin_respond t a
                         else if Buffer.length a.a_in >= admin_head_limit then
                           a.a_out <-
                             http_reply "431 Request Header Fields Too Large"
                               "text/plain" "request head too large\n"
                     | exception
                         Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                         ()
                     | exception Unix.Unix_error _ -> close_fd fd)))
         readable;
       drain t;
       List.iter
         (fun fd ->
           match Hashtbl.find_opt conns fd with
           | Some c -> (
               (* Take the buffered responses once, then let partial
                  writes advance an offset into that string: re-copying
                  the unsent tail per writable event would be quadratic
                  in the size of a large reply. *)
               if c.sending = "" then begin
                 c.sending <- Buffer.contents c.out;
                 Buffer.clear c.out
               end;
               let len = String.length c.sending - c.sent in
               if len > 0 then
                 match Unix.write_substring fd c.sending c.sent len with
                 | n ->
                     c.sent <- c.sent + n;
                     if c.sent = String.length c.sending then begin
                       c.sending <- "";
                       c.sent <- 0
                     end
                 | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
                 | exception Unix.Unix_error _ -> close_fd fd)
           | None -> (
               match Hashtbl.find_opt admins fd with
               | None -> ()
               | Some a -> (
                   let len = String.length a.a_out - a.a_pos in
                   if len > 0 then
                     match Unix.write_substring fd a.a_out a.a_pos len with
                     | n ->
                         a.a_pos <- a.a_pos + n;
                         if a.a_pos = String.length a.a_out then close_fd fd
                     | exception
                         Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                         ()
                     | exception Unix.Unix_error _ -> close_fd fd)))
         writable;
       (* Poisoned connections are closed once their NACKs have flushed. *)
       Hashtbl.iter
         (fun fd c ->
           if conn_failed c && unsent c = 0 then close_fd fd)
         (Hashtbl.copy conns)
     done
   with e ->
     Unix.close listener;
     (match admin_listener with
     | Some l -> ( try Unix.close l with Unix.Unix_error _ -> ())
     | None -> ());
     raise e);
  (* Graceful exit (SIGTERM/SIGINT): drain what is queued
     and make it durable — only kill -9 loses the undurable suffix, and
     that suffix is exactly what clients replay by linearity. *)
  while not (Queue.is_empty t.queue) do
    drain t
  done;
  checkpoint_now t;
  flight_dump t "shutdown";
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) admins;
  Unix.close listener;
  (match admin_listener with
  | Some l -> ( try Unix.close l with Unix.Unix_error _ -> ())
  | None -> ());
  (match admin_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | None -> ());
  try Unix.unlink socket_path with Unix.Unix_error _ -> ()
