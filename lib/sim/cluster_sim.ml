open Ds_util
open Ds_graph
open Ds_stream
open Ds_agm

type report = {
  servers : int;
  updates_total : int;
  bytes_per_server : int array;
  bytes_total : int;
  words_per_server : int;
  forest_edges : int;
  forest_correct : bool;
}

(* Verification against the offline ground truth: every forest edge is a
   real final-graph edge, and the forest has exactly the component
   structure of the final graph. *)
let forest_ok ~n stream forest =
  let g = Update.final_graph ~n stream in
  List.for_all (fun (u, v) -> Graph.mem_edge g u v) forest
  &&
  let fg = Graph.create n in
  List.iter (fun (u, v) -> if not (Graph.mem_edge fg u v) then Graph.add_edge fg u v) forest;
  Components.count fg = Components.count g
  && List.length forest = n - Components.count g

(* Update [i] goes to server [i mod servers], each shard in stream order.
   Shards are materialized arrays by design: the simulation charges each
   server for its own copy of the stream.  By linearity the split cannot
   change the coordinator's sum, so every protocol below uses this one. *)
let round_robin ~servers updates =
  let n = Array.length updates in
  Array.init servers (fun s ->
      Array.init ((n - s + servers - 1) / servers) (fun i -> updates.(s + (i * servers))))

let run rng ~n ~servers stream =
  if servers < 1 then invalid_arg "Cluster_sim.run: need at least one server";
  Ds_obs.Trace.with_span "cluster.run" @@ fun () ->
  let params = Agm_sketch.default_params ~n in
  (* Shared randomness: all servers and the coordinator derive identical
     sketch structure from the same seed. *)
  let shared = Prng.split_named rng "shared-sketch-seed" in
  let fresh () = Agm_sketch.create (Prng.copy shared) ~n ~params in
  let shard_updates = round_robin ~servers stream in
  (* Sketch each server's shard, then ship: serialize every shard (the
     communication the paper counts). *)
  (* Each serialize runs under its own "cluster.ship" span and embeds
     that span's context in the envelope, so the coordinator's decode
     spans link back to the shipping server.  With tracing disabled
     [current_context] is [None] and the bytes are unchanged. *)
  let sketch_server updates =
    let sk = fresh () in
    Ds_obs.Trace.with_span "cluster.sketch" (fun () ->
        Agm_sketch.update_batch sk updates);
    let msg =
      Ds_obs.Trace.with_span "cluster.ship" (fun () ->
          Agm_sketch.serialize ?trace:(Ds_obs.Trace.current_context ()) sk)
    in
    (sk, msg)
  in
  let server_results = Array.map sketch_server shard_updates in
  let shards = Array.map fst server_results in
  let messages = Array.map snd server_results in
  let bytes_per_server = Array.map String.length messages in
  (* Coordinator: absorb and sum. *)
  let coordinator = fresh () in
  let scratch = fresh () in
  Ds_obs.Trace.with_span "cluster.merge" (fun () ->
      Array.iter
        (fun m ->
          Agm_sketch.deserialize_into scratch m;
          Agm_sketch.add coordinator scratch)
        messages);
  let forest = Agm_sketch.spanning_forest coordinator in
  let forest_correct = forest_ok ~n stream forest in
  {
    servers;
    updates_total = Array.length stream;
    bytes_per_server;
    bytes_total = Array.fold_left ( + ) 0 bytes_per_server;
    words_per_server = Agm_sketch.space_in_words shards.(0);
    forest_edges = List.length forest;
    forest_correct;
  }

(* ------------------------------------------------------------------ *)
(* Generic shipping: the same server/coordinator round-trip for any
   sketch implementing the linear interface.                           *)

module Linear_sketch = Ds_sketch.Linear_sketch

type ship_report = {
  family : string;
  ship_servers : int;
  ship_updates_total : int;
  ship_bytes_per_server : int array;
  ship_bytes_total : int;
  ship_words_per_server : int;
  matches_direct : bool;
}

let ship (type s) ((module L) : s Linear_sketch.impl) ~make ~servers
    (updates : (int * int) array) =
  if servers < 1 then invalid_arg "Cluster_sim.ship: need at least one server";
  Ds_obs.Trace.with_span "cluster.ship_run" @@ fun () ->
  let shards = round_robin ~servers updates in
  let sketch_server part =
    let sk : s = make () in
    Ds_obs.Trace.with_span "cluster.sketch" (fun () ->
        Array.iter (fun (index, delta) -> L.update sk ~index ~delta) part);
    Ds_obs.Trace.with_span "cluster.ship" (fun () ->
        Linear_sketch.serialize
          ?trace:(Ds_obs.Trace.current_context ())
          (module L) sk)
  in
  let messages = Array.map sketch_server shards in
  let bytes_per_server = Array.map String.length messages in
  (* Coordinator: deserialize each message and sum (the wire round-trip the
     paper's distributed setting counts). *)
  let coordinator = make () in
  Array.iter (fun m -> Linear_sketch.absorb (module L) coordinator m) messages;
  (* Ground truth: the same updates sketched directly in one process. *)
  let direct = make () in
  Array.iter (fun (index, delta) -> L.update direct ~index ~delta) updates;
  let matches_direct =
    Linear_sketch.serialize (module L) coordinator
    = Linear_sketch.serialize (module L) direct
  in
  {
    family = L.family;
    ship_servers = servers;
    ship_updates_total = Array.length updates;
    ship_bytes_per_server = bytes_per_server;
    ship_bytes_total = Array.fold_left ( + ) 0 bytes_per_server;
    ship_words_per_server = L.space_in_words coordinator;
    matches_direct;
  }

let ship_families rng ~dim ~servers updates =
  let module S = Ds_sketch in
  (* Each family gets an independent child seed; [make] copies it so every
     replica (server, coordinator, direct) derives identical structure. *)
  let seeded name create =
    let seed = Prng.split_named rng name in
    fun () -> create (Prng.copy seed)
  in
  [
    ship
      (module S.One_sparse.Linear)
      ~make:(seeded "one_sparse" (fun r -> S.One_sparse.create r ~dim))
      ~servers updates;
    ship
      (module S.Sparse_recovery.Linear)
      ~make:
        (seeded "sparse_recovery" (fun r ->
             S.Sparse_recovery.create r ~dim
               ~params:(S.Sparse_recovery.default_params ~sparsity:8)))
      ~servers updates;
    ship
      (module S.Count_sketch.Linear)
      ~make:
        (seeded "count_sketch" (fun r ->
             S.Count_sketch.create r ~dim ~params:S.Count_sketch.default_params))
      ~servers updates;
    ship
      (module S.Ams_f2.Linear)
      ~make:(seeded "ams_f2" (fun r -> S.Ams_f2.create r ~dim ~params:S.Ams_f2.default_params))
      ~servers updates;
    ship
      (module S.F0.Linear)
      ~make:(seeded "f0" (fun r -> S.F0.create r ~dim ~params:S.F0.default_params))
      ~servers updates;
    ship
      (module S.L0_sampler.Linear)
      ~make:
        (seeded "l0_sampler" (fun r ->
             S.L0_sampler.create r ~dim ~params:S.L0_sampler.default_params))
      ~servers updates;
    ship
      (module S.Packed_l0.Linear)
      ~make:
        (seeded "packed_l0" (fun r ->
             S.Packed_l0.Owned.create r ~dim ~params:S.Packed_l0.default_params))
      ~servers updates;
    ship
      (module S.Sketch_table.Linear)
      ~make:
        (seeded "sketch_table" (fun r ->
             S.Sketch_table.create r ~key_dim:dim ~capacity:32 ~rows:3 ~hash_degree:6
               ~payload_len:0))
      ~servers updates;
  ]

(* ------------------------------------------------------------------ *)
(* Supervised runs: the same protocol pushed through a deterministically
   faulted channel, with a coordinator that validates every envelope,
   retries transient faults with capped backoff, deduplicates, recovers
   crashed shards by linearity and degrades to quorum decoding when a
   server is permanently lost.                                         *)

module Fault_plan = Ds_fault.Fault_plan
module Supervisor = Ds_fault.Supervisor

(* Mutable channel accounting shared by every message of one run. *)
type chan_stats = {
  mutable sent : int; (* send attempts, including faulted ones *)
  mutable faults : int;
  by_kind : (string, int) Hashtbl.t;
  mutable retries : int;
  mutable backoff : float; (* simulated waiting, in backoff time units *)
  mutable duplicates_rejected : int;
  mutable decode_errors : int;
  mutable bytes : int; (* bytes that actually crossed the channel *)
}

let fresh_chan_stats () =
  {
    sent = 0;
    faults = 0;
    by_kind = Hashtbl.create 8;
    retries = 0;
    backoff = 0.0;
    duplicates_rejected = 0;
    decode_errors = 0;
    bytes = 0;
  }

let count_fault stats f =
  stats.faults <- stats.faults + 1;
  let k = Fault_plan.fault_name f in
  Hashtbl.replace stats.by_kind k
    (1 + Option.value ~default:0 (Hashtbl.find_opt stats.by_kind k))

let faults_by_kind stats =
  List.map
    (fun k -> (k, Option.value ~default:0 (Hashtbl.find_opt stats.by_kind k)))
    Fault_plan.kind_names

(* Push one message through the faulted channel with retries. [absorb]
   validates-and-merges delivered bytes into the coordinator (untouched on
   [Error], so the same destination can be retried). Crashes are sticky:
   once [crashed.(server)] is set, every remaining attempt and message from
   that server fails without consulting the plan. Returns whether the
   message was merged. *)
let deliver ~plan ~stats ~crashed ~server ~message msg ~absorb =
  let merge bytes ~dup =
    stats.bytes <- stats.bytes + ((if dup then 2 else 1) * String.length bytes);
    match absorb bytes with
    | Ok () ->
        (* A duplicate's first arrival merges; the second hits the ledger
           (this (server, message) is now merged) and is rejected, never
           summed twice. *)
        if dup then stats.duplicates_rejected <- stats.duplicates_rejected + 1;
        Ok ()
    | Error e ->
        stats.decode_errors <- stats.decode_errors + 1;
        Error (`Decode e)
  in
  let result, rstats =
    Supervisor.retry (fun ~attempt ->
        if crashed.(server) then Error `Crashed
        else begin
          stats.sent <- stats.sent + 1;
          let fault = Fault_plan.draw plan ~server ~message ~attempt in
          (match fault with Some f -> count_fault stats f | None -> ());
          let crng = Fault_plan.channel_rng plan ~server ~message ~attempt in
          match Fault_plan.apply crng fault msg with
          | Fault_plan.Crashed ->
              crashed.(server) <- true;
              Error `Crashed
          | Fault_plan.Lost -> Error `Lost
          | Fault_plan.Delivered bytes -> merge bytes ~dup:false
          | Fault_plan.Duplicated bytes -> merge bytes ~dup:true
          | Fault_plan.Delayed (units, bytes) ->
              stats.backoff <- stats.backoff +. float_of_int units;
              merge bytes ~dup:false
        end)
  in
  stats.retries <- stats.retries + (rstats.Supervisor.attempts - 1);
  stats.backoff <- stats.backoff +. rstats.Supervisor.backoff;
  match result with Ok () -> true | Error _ -> false

(* Wire cost of re-reading one raw update during recovery: two endpoint
   words and a delta word. *)
let update_wire_bytes = 24

type supervised_report = {
  sup_servers : int;
  sup_updates_total : int;
  sup_messages : int; (* distinct (server, repetition) envelopes *)
  sup_attempts : int; (* send attempts, including faulted ones *)
  sup_faults : int;
  sup_faults_by_kind : (string * int) list; (* Fault_plan.kind_names order *)
  sup_retries : int;
  sup_backoff : float;
  sup_duplicates_rejected : int;
  sup_decode_errors : int;
  sup_bytes_total : int; (* bytes that crossed the channel *)
  sup_crashed_servers : int list;
  sup_reingested_servers : int list;
  sup_reingested_updates : int;
  sup_recovery_bytes : int;
  sup_lost_servers : int list;
  sup_quorum : int; (* repetitions usable for decoding *)
  sup_copies : int; (* repetition budget of the sketch *)
  sup_degraded_delta : float;
  sup_forest_edges : int;
  sup_forest_correct : bool;
  sup_merged_hash : int64; (* FNV-1a of the coordinator's serialized state *)
}

let run_supervised ?(allow_reingest = true) ~plan rng ~n ~servers stream =
  if servers < 1 then invalid_arg "Cluster_sim.run_supervised: need at least one server";
  Ds_obs.Trace.with_span "cluster.run_supervised" @@ fun () ->
  let params = Agm_sketch.default_params ~n in
  (* Same seed chain as [run]: with full recovery the coordinator's merged
     state is byte-identical to the fault-free protocol's. *)
  let shared = Prng.split_named rng "shared-sketch-seed" in
  let fresh () = Agm_sketch.create (Prng.copy shared) ~n ~params in
  let shard_updates = round_robin ~servers stream in
  (* Servers sketch exactly as in the fault-free protocol but ship each
     repetition as its own checksummed envelope: the unit of shipping is the
     unit of loss, so one fault costs one repetition, not a whole sketch. *)
  let sketch_server updates =
    let sk = fresh () in
    Ds_obs.Trace.with_span "cluster.sketch" (fun () ->
        Agm_sketch.update_batch sk updates);
    let envs =
      Array.init (Agm_sketch.copies sk) (fun c ->
          Ds_obs.Trace.with_span "cluster.ship" (fun () ->
              Agm_sketch.Copy.serialize
                ?trace:(Ds_obs.Trace.current_context ())
                (Agm_sketch.Copy.slice sk c)))
    in
    (sk, envs)
  in
  let server_results = Array.map sketch_server shard_updates in
  let envelopes = Array.map snd server_results in
  let copies = Agm_sketch.copies (fst server_results.(0)) in
  (* The coordinator ingests envelopes through the faulted channel. Fault
     draws are stateless per (server, message, attempt), so equal-seed
     plans replay identically. *)
  let coordinator = fresh () in
  let stats = fresh_chan_stats () in
  let crashed = Array.make servers false in
  let merged = Array.make_matrix servers copies false in
  Ds_obs.Trace.with_span "cluster.deliver" (fun () ->
      for s = 0 to servers - 1 do
        for c = 0 to copies - 1 do
          if not crashed.(s) then
            merged.(s).(c) <-
              deliver ~plan ~stats ~crashed ~server:s ~message:c
                envelopes.(s).(c)
                ~absorb:
                  (Agm_sketch.Copy.absorb_result (Agm_sketch.Copy.slice coordinator c))
        done
      done);
  (* Recovery by linearity: the coordinator re-sketches a failed server's
     shard from the trace and sums the missing repetitions into its state —
     no global restart, no re-send protocol, and the recovered sum equals
     the fault-free sum bit for bit. *)
  let reingested = ref [] in
  let reingested_updates = ref 0 in
  let recovery_bytes = ref 0 in
  let lost = ref [] in
  for s = servers - 1 downto 0 do
    let missing =
      List.filter (fun c -> not merged.(s).(c)) (List.init copies (fun c -> c))
    in
    if missing <> [] then
      if allow_reingest then
        Ds_obs.Trace.with_span "cluster.recover" (fun () ->
            let replica = fresh () in
            Agm_sketch.update_batch replica shard_updates.(s);
            List.iter
              (fun c ->
                Agm_sketch.Copy.Linear.add
                  (Agm_sketch.Copy.slice coordinator c)
                  (Agm_sketch.Copy.slice replica c);
                merged.(s).(c) <- true)
              missing;
            reingested := s :: !reingested;
            reingested_updates := !reingested_updates + Array.length shard_updates.(s);
            recovery_bytes :=
              !recovery_bytes + (update_wire_bytes * Array.length shard_updates.(s)))
      else lost := s :: !lost
  done;
  (* Quorum decode: a repetition is trustworthy only if every server's
     contribution to it was merged; the surviving quorum shrinks the
     Boruvka round budget and the certified failure probability tracks it. *)
  let quorum =
    List.filter
      (fun c -> Array.for_all (fun row -> row.(c)) merged)
      (List.init copies (fun c -> c))
  in
  let forest =
    Agm_sketch.spanning_forest ~copies:(Array.of_list quorum) coordinator
  in
  let crashed_servers =
    List.filter (fun s -> crashed.(s)) (List.init servers (fun s -> s))
  in
  {
    sup_servers = servers;
    sup_updates_total = Array.length stream;
    sup_messages = servers * copies;
    sup_attempts = stats.sent;
    sup_faults = stats.faults;
    sup_faults_by_kind = faults_by_kind stats;
    sup_retries = stats.retries;
    sup_backoff = stats.backoff;
    sup_duplicates_rejected = stats.duplicates_rejected;
    sup_decode_errors = stats.decode_errors;
    sup_bytes_total = stats.bytes;
    sup_crashed_servers = crashed_servers;
    sup_reingested_servers = !reingested;
    sup_reingested_updates = !reingested_updates;
    sup_recovery_bytes = !recovery_bytes;
    sup_lost_servers = !lost;
    sup_quorum = List.length quorum;
    sup_copies = copies;
    sup_degraded_delta = Agm_sketch.certified_delta ~n ~copies:(List.length quorum);
    sup_forest_edges = List.length forest;
    sup_forest_correct = forest_ok ~n stream forest;
    sup_merged_hash = Wire.fnv1a64 (Agm_sketch.serialize coordinator);
  }

let pp_supervised_report ppf r =
  Format.fprintf ppf "servers=%d updates=%d messages=%d attempts=%d@." r.sup_servers
    r.sup_updates_total r.sup_messages r.sup_attempts;
  Format.fprintf ppf "faults=%d (%s)@." r.sup_faults
    (String.concat ", "
       (List.filter_map
          (fun (k, c) -> if c = 0 then None else Some (Printf.sprintf "%s %d" k c))
          r.sup_faults_by_kind));
  Format.fprintf ppf "retries=%d backoff=%.1f dup-rejected=%d decode-errors=%d wire=%d bytes@."
    r.sup_retries r.sup_backoff r.sup_duplicates_rejected r.sup_decode_errors r.sup_bytes_total;
  Format.fprintf ppf "crashed=[%s] reingested=[%s] (%d updates, %d bytes) lost=[%s]@."
    (String.concat ";" (List.map string_of_int r.sup_crashed_servers))
    (String.concat ";" (List.map string_of_int r.sup_reingested_servers))
    r.sup_reingested_updates r.sup_recovery_bytes
    (String.concat ";" (List.map string_of_int r.sup_lost_servers));
  Format.fprintf ppf "quorum=%d/%d certified-delta=%g@." r.sup_quorum r.sup_copies
    r.sup_degraded_delta;
  Format.fprintf ppf "forest: %d edges, correct=%b merged-hash=%Lx@." r.sup_forest_edges
    r.sup_forest_correct r.sup_merged_hash
