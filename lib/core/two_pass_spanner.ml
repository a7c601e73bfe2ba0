open Ds_util
open Ds_sketch
open Ds_graph
open Ds_stream

type params = {
  k : int;
  sketch_sparsity : int;
  sketch_rows : int;
  table_rows : int;
  capacity_factor : float;
  payload : Packed_l0.params;
  hash_degree : int;
}

let default_params ~k =
  {
    k;
    sketch_sparsity = 8;
    sketch_rows = 3;
    table_rows = 3;
    capacity_factor = 3.0;
    payload = Packed_l0.default_params;
    hash_degree = 6;
  }

type diagnostics = {
  terminals_per_level : int array;
  pass1_decode_failures : int;
  table_decode_failures : int;
  payload_decode_failures : int;
  recovered_edges : int;
}

type result = {
  spanner : Graph.t;
  accessed_edges : (int * int) list;
  clustering : Clustering.t;
  space_words : int;
  diagnostics : diagnostics;
}

let space_bound ~n ~k =
  let nf = float_of_int n and kf = float_of_int k in
  kf *. (nf ** (1.0 +. (1.0 /. kf))) *. log (max 2.0 nf) /. log 2.0

(* Telemetry: per-pass counters and the space ledger (all no-ops unless
   Ds_obs.Metrics is enabled).  Qualified [Ds_obs.Trace] throughout —
   [open Ds_stream] is in scope. *)
let m_p1_updates = Ds_obs.Metrics.counter "spanner.pass1.updates"
let m_p2_updates = Ds_obs.Metrics.counter "spanner.pass2.updates"
let m_fail_pass1 = Ds_obs.Metrics.counter "spanner.decode_fail.pass1"
let m_fail_table = Ds_obs.Metrics.counter "spanner.decode_fail.table"
let m_fail_payload = Ds_obs.Metrics.counter "spanner.decode_fail.payload"
let m_recovered = Ds_obs.Metrics.counter "spanner.recovered_edges"
let m_ckpt_bytes = Ds_obs.Metrics.counter "spanner.checkpoint.bytes"
let m_resume_ok = Ds_obs.Metrics.counter "spanner.resume.ok"
let m_resume_rejected = Ds_obs.Metrics.counter "spanner.resume.rejected"

(* ------------------------------------------------------------------ *)
(* Pass 1: the S^r_j sketches and the cluster forest.                   *)
(* ------------------------------------------------------------------ *)

type pass1 = {
  n : int;
  prm : params;
  edge_dim : int;
  levels : int; (* number of sampling levels J *)
  level_hash : Kwise.t; (* nested E_j membership: e in E_j iff level(e) >= j *)
  centers : Clustering.centers;
  (* sketches.(u).(r-1).(j) = S^r_j(u), r in [1, k-1]. *)
  sketches : Sparse_recovery.t array array array;
  accessed : (int, unit) Hashtbl.t; (* edge indices revealed by any decode *)
  mutable decode_failures : int;
}

let make_pass1 rng ~n ~prm =
  let edge_dim = Edge_index.dim n in
  let levels = F0.levels_for edge_dim in
  let centers = Clustering.sample_centers (Prng.split_named rng "centers") ~n ~k:prm.k in
  let sr_params =
    {
      Sparse_recovery.sparsity = prm.sketch_sparsity;
      rows = prm.sketch_rows;
      hash_degree = prm.hash_degree;
    }
  in
  (* One prototype per (r, j): all vertices share its hashes (mergeable). *)
  let protos =
    Array.init (max 0 (prm.k - 1)) (fun ri ->
        Array.init levels (fun j ->
            Sparse_recovery.create
              (Prng.split_named rng (Printf.sprintf "s.%d.%d" ri j))
              ~dim:edge_dim ~params:sr_params))
  in
  let sketches =
    Array.init n (fun _ ->
        Array.map (Array.map Sparse_recovery.clone_zero) protos)
  in
  {
    n;
    prm;
    edge_dim;
    levels;
    level_hash = Kwise.create (Prng.split_named rng "elevels") ~k:prm.hash_degree;
    centers;
    sketches;
    accessed = Hashtbl.create 1024;
    decode_failures = 0;
  }

let pass1_update p (u : Update.t) =
  let delta = Update.delta u in
  let idx = Edge_index.encode ~n:p.n u.Update.u u.Update.v in
  let folded = Kwise.fold_key idx in
  let lvl = min (Kwise.level_folded p.level_hash folded) (p.levels - 1) in
  for r = 1 to p.prm.k - 1 do
    if p.centers.(r).(u.Update.v) then
      for j = 0 to lvl do
        Sparse_recovery.update_folded p.sketches.(u.Update.u).(r - 1).(j) ~index:idx ~folded ~delta
      done;
    if p.centers.(r).(u.Update.u) then
      for j = 0 to lvl do
        Sparse_recovery.update_folded p.sketches.(u.Update.v).(r - 1).(j) ~index:idx ~folded ~delta
      done
  done

(* Sharded pass-1 fill: the sketch array is a linear function of the stream,
   so per-domain replicas (sharing the immutable hash state) summed cell-wise
   equal the sequentially filled array exactly. *)
let clone_sketches_zero p =
  Array.map (Array.map (Array.map Sparse_recovery.clone_zero)) p.sketches

let merge_sketches dst src =
  Array.iteri
    (fun u per_r ->
      Array.iteri
        (fun ri per_j ->
          Array.iteri (fun j sk -> Sparse_recovery.add dst.(u).(ri).(j) sk) per_j)
        per_r)
    src

let pass1_fill p ~ingest stream =
  Ds_obs.Metrics.incr m_p1_updates (Array.length stream);
  Ds_obs.Trace.with_span "spanner.pass1" @@ fun () ->
  match ingest with
  | `Sequential -> Array.iter (pass1_update p) stream
  | `Parallel pool ->
      Ds_par.Shard_ingest.ingest_into pool
        ~clone_zero:(fun q -> { q with sketches = clone_sketches_zero q })
        ~update:(fun replica stream ~pos ~len ->
          for i = pos to pos + len - 1 do
            pass1_update replica stream.(i)
          done)
        ~add:(fun a b -> merge_sketches a.sketches b.sketches)
        p stream

(* Attach callback: sum member sketches for target level r = level+1, then
   scan sampling levels from sparsest down; the first non-empty decodable
   window yields the parent and witness. *)
let attach p ~level ~root:_ ~members =
  let r = level + 1 in
  let member_set = Hashtbl.create (List.length members) in
  List.iter (fun v -> Hashtbl.replace member_set v ()) members;
  let record assoc = List.iter (fun (idx, _) -> Hashtbl.replace p.accessed idx ()) assoc in
  let pick assoc =
    (* Choose any decoded edge; identify which endpoint is the C_r parent. *)
    let best = ref None in
    List.iter
      (fun (idx, _) ->
        let a, b = Edge_index.decode ~n:p.n idx in
        let a_in = Hashtbl.mem member_set a and b_in = Hashtbl.mem member_set b in
        let candidate =
          (* witness = (inside endpoint, parent); parent must be in C_r. *)
          if p.centers.(r).(b) && a_in && not b_in then Some (b, (a, b))
          else if p.centers.(r).(a) && b_in && not a_in then Some (a, (b, a))
          else if p.centers.(r).(b) && a_in then Some (b, (a, b))
          else if p.centers.(r).(a) && b_in then Some (a, (b, a))
          else None
        in
        match (!best, candidate) with
        | None, Some _ -> best := candidate
        | _ -> ())
      assoc;
    !best
  in
  let merged j =
    match members with
    | [] -> invalid_arg "Two_pass_spanner.attach: empty cluster"
    | first :: rest ->
        let acc = Sparse_recovery.copy p.sketches.(first).(r - 1).(j) in
        List.iter (fun v -> Sparse_recovery.add acc p.sketches.(v).(r - 1).(j)) rest;
        acc
  in
  let rec scan j =
    if j < 0 then None
    else
      match Sparse_recovery.decode (merged j) with
      | Some [] -> scan (j - 1)
      | Some assoc -> (
          record assoc;
          match pick assoc with
          | Some _ as res -> res
          | None -> scan (j - 1) (* decoded only intra-cluster edges; go denser *))
      | None ->
          (* Window [1, B] skipped between levels: count and fall back to
             terminal (costs table space, never correctness). *)
          p.decode_failures <- p.decode_failures + 1;
          None
  in
  scan (p.levels - 1)

(* ------------------------------------------------------------------ *)
(* Pass 2: terminal-cluster hash tables.                                *)
(* ------------------------------------------------------------------ *)

type terminal_table = {
  members : int array;
  table : Sketch_table.t;
  payload_cfg : Packed_l0.config option; (* None for singleton clusters *)
}

type pass2 = {
  terminal_id_of : int array;
  rank_in_terminal : int array;
  tables : terminal_table array; (* indexed by terminal id *)
}

let make_pass2 rng ~n ~prm (clustering : Clustering.t) =
  let terminal_id_of = clustering.Clustering.terminal_id_of in
  let rank_in_terminal = Array.make n (-1) in
  let log2n = float_of_int (F0.levels_for n) in
  let tables =
    Array.mapi
      (fun tid { Clustering.level; members; _ } ->
        let members = Array.of_list members in
        Array.iteri (fun i v -> rank_in_terminal.(v) <- i) members;
        let trng = Prng.split_named rng (Printf.sprintf "table%d" tid) in
        let nf = float_of_int n in
        let expected_keys =
          prm.capacity_factor *. log2n
          *. (nf ** (float_of_int (level + 1) /. float_of_int prm.k))
        in
        let capacity = max 8 (min (2 * n) (int_of_float (ceil expected_keys))) in
        let payload_cfg, payload_len =
          if Array.length members <= 1 then (None, 0)
          else begin
            let cfg =
              Packed_l0.make_config
                (Prng.split_named trng "payload")
                ~dim:(Array.length members) ~params:prm.payload
            in
            (Some cfg, Packed_l0.state_len cfg)
          end
        in
        let table =
          Sketch_table.create (Prng.split_named trng "cells") ~key_dim:n ~capacity
            ~rows:prm.table_rows ~hash_degree:prm.hash_degree ~payload_len
        in
        { members; table; payload_cfg })
      clustering.Clustering.terminals
  in
  { terminal_id_of; rank_in_terminal; tables }

let pass2_update p2 (u : Update.t) =
  let delta = Update.delta u in
  let route a b =
    let tid = p2.terminal_id_of.(a) in
    if p2.terminal_id_of.(b) <> tid then begin
      let tt = p2.tables.(tid) in
      let rank = p2.rank_in_terminal.(a) in
      let write =
        match tt.payload_cfg with
        | None -> fun _arr _off -> ()
        | Some cfg -> fun arr off -> Packed_l0.update cfg arr ~off ~index:rank ~delta
      in
      Sketch_table.update tt.table ~key:b ~weight:delta ~write
    end
  in
  route u.Update.u u.Update.v;
  route u.Update.v u.Update.u

(* ------------------------------------------------------------------ *)
(* Checkpoint: the pass boundary, serialised.                          *)
(* ------------------------------------------------------------------ *)

(* Everything pass 2 needs and the stream cannot regenerate is (a) the
   pass-1 sketch counters and (b) the seed-derived structure. (b) is rebuilt
   by replaying the same PRNG chain in [resume], so the checkpoint carries
   only (a) plus enough of (n, params) to verify the caller replays the
   chain with the same inputs. Same envelope discipline as
   {!Linear_sketch}: magic, shape, body, trailing FNV-1a-64 checksum
   verified before any parsing. *)

let checkpoint_magic = "TPS1"
let checksum_bytes = 8

let write_params sink prm =
  Wire.write_int sink prm.k;
  Wire.write_int sink prm.sketch_sparsity;
  Wire.write_int sink prm.sketch_rows;
  Wire.write_int sink prm.table_rows;
  Wire.write_fixed64 sink (Int64.bits_of_float prm.capacity_factor);
  Wire.write_int sink prm.payload.Packed_l0.reps;
  Wire.write_int sink prm.payload.Packed_l0.sparsity;
  Wire.write_int sink prm.payload.Packed_l0.hash_degree;
  Wire.write_int sink prm.hash_degree

let read_params src =
  let k = Wire.read_int src in
  let sketch_sparsity = Wire.read_int src in
  let sketch_rows = Wire.read_int src in
  let table_rows = Wire.read_int src in
  let capacity_factor = Int64.float_of_bits (Wire.read_fixed64 src) in
  let reps = Wire.read_int src in
  let sparsity = Wire.read_int src in
  let payload_hash_degree = Wire.read_int src in
  let hash_degree = Wire.read_int src in
  {
    k;
    sketch_sparsity;
    sketch_rows;
    table_rows;
    capacity_factor;
    payload = { Packed_l0.reps; sparsity; hash_degree = payload_hash_degree };
    hash_degree;
  }

let serialize_pass1 p1 =
  let sink = Wire.sink () in
  Wire.write_tag sink checkpoint_magic;
  Wire.write_int sink p1.n;
  write_params sink p1.prm;
  Wire.write_int sink p1.levels;
  Array.iter (Array.iter (Array.iter (fun sk -> Sparse_recovery.write sk sink))) p1.sketches;
  let payload = Wire.contents sink in
  let tail = Wire.sink () in
  Wire.write_fixed64 tail (Wire.fnv1a64 payload);
  payload ^ Wire.contents tail

type checkpoint_error =
  | Truncated of { length : int; min_length : int }
  | Checksum_mismatch
  | Wrong_magic of { got : string }
  | Header_mismatch of { field : string }
  | Malformed_body of string
  | Trailing_bytes of int

let checkpoint_error_to_string = function
  | Truncated { length; min_length } ->
      Printf.sprintf "truncated checkpoint (%d bytes, need at least %d)" length min_length
  | Checksum_mismatch -> "checkpoint checksum mismatch (corrupt or truncated)"
  | Wrong_magic { got } -> Printf.sprintf "not a TPS1 checkpoint (magic %S)" got
  | Header_mismatch { field } ->
      Printf.sprintf "checkpoint %s mismatch (taken with different inputs)" field
  | Malformed_body msg -> Printf.sprintf "malformed checkpoint body (%s)" msg
  | Trailing_bytes k -> Printf.sprintf "checkpoint has %d trailing bytes" k

let pp_checkpoint_error ppf e = Format.pp_print_string ppf (checkpoint_error_to_string e)

(* On [Error] past the header checks the destination's counters may be
   partially overwritten — callers must discard [p1] (what
   [resume_or_restart] does by recomputing pass 1 from the stream). *)
let load_pass1_result p1 data =
  let len = String.length data in
  let min_length = checksum_bytes + String.length checkpoint_magic + 2 in
  if len < min_length then Error (Truncated { length = len; min_length })
  else begin
    let payload_len = len - checksum_bytes in
    let stored = ref 0L in
    for i = checksum_bytes - 1 downto 0 do
      stored := Int64.logor (Int64.shift_left !stored 8) (Int64.of_int (Char.code data.[payload_len + i]))
    done;
    if Wire.fnv1a64 ~len:payload_len data <> !stored then Error Checksum_mismatch
    else
      try
        let src = Wire.source (String.sub data 0 payload_len) in
        let magic = Wire.read_tag src in
        if magic <> checkpoint_magic then Error (Wrong_magic { got = magic })
        else if Wire.read_int src <> p1.n then Error (Header_mismatch { field = "n" })
        else if read_params src <> p1.prm then Error (Header_mismatch { field = "params" })
        else if Wire.read_int src <> p1.levels then Error (Header_mismatch { field = "levels" })
        else begin
          Array.iter (Array.iter (Array.iter (fun sk -> Sparse_recovery.read_into sk src))) p1.sketches;
          match Wire.remaining src with 0 -> Ok () | k -> Error (Trailing_bytes k)
        end
      with Failure msg -> Error (Malformed_body msg)
  end


(* ------------------------------------------------------------------ *)

(* The PRNG chain is the contract between [run], [checkpoint] and [resume]:
   all three derive pass-1 structure from split_named rng
   "two_pass_spanner" -> "pass1" and pass-2 structure from -> "pass2", so a
   resumed process rebuilds hash functions bit-identical to the
   checkpointing one from the same caller seed. *)
let derive rng ~n ~prm =
  if prm.k < 1 then invalid_arg "Two_pass_spanner: k must be >= 1";
  Ds_obs.Trace.with_span "spanner.derive" @@ fun () ->
  let rng = Prng.split_named rng "two_pass_spanner" in
  (rng, make_pass1 (Prng.split_named rng "pass1") ~n ~prm)

(* Space of pass 1: per-vertex cells plus one shared hash set per (r, j).
   Shared with the space ledger, which reports the measured constant of
   this quantity against [space_bound]. *)
let pass1_space_words p1 =
  let per_sketch =
    if p1.prm.k > 1 then Sparse_recovery.space_in_words p1.sketches.(0).(0).(0)
    else 0
  in
  p1.n * (p1.prm.k - 1) * p1.levels * per_sketch

let finish rng p1 ~n ~prm stream =
  let clustering =
    Ds_obs.Trace.with_span "spanner.clustering" @@ fun () ->
    Clustering.build ~n ~k:prm.k ~centers:p1.centers ~attach:(attach p1)
  in
  let pass1_space = pass1_space_words p1 in
  let p2 =
    Ds_obs.Trace.with_span "spanner.derive" (fun () ->
        make_pass2 (Prng.split_named rng "pass2") ~n ~prm clustering)
  in
  Ds_obs.Metrics.incr m_p2_updates (Array.length stream);
  (Ds_obs.Trace.with_span "spanner.pass2" @@ fun () ->
   Array.iter (pass2_update p2) stream);
  (* Assemble the spanner. *)
  let spanner = Graph.create n in
  let add a b = if a <> b && not (Graph.mem_edge spanner a b) then Graph.add_edge spanner a b in
  List.iter (fun (a, b) -> add a b) clustering.Clustering.witnesses;
  let table_failures = ref 0 and payload_failures = ref 0 and recovered = ref 0 in
  Ds_obs.Trace.with_span "spanner.extract" (fun () ->
      Array.iter
        (fun tt ->
          match Sketch_table.decode tt.table with
          | None -> incr table_failures
          | Some entries ->
              List.iter
                (fun (key, weight, payload) ->
                  if weight > 0 then
                    match tt.payload_cfg with
                    | None ->
                        incr recovered;
                        add tt.members.(0) key
                    | Some cfg -> (
                        match Packed_l0.decode cfg payload ~off:0 with
                        | Some (rank, _) ->
                            incr recovered;
                            add tt.members.(rank) key
                        | None -> incr payload_failures))
                entries)
        p2.tables);
  let pass2_space =
    Array.fold_left (fun acc tt -> acc + Sketch_table.space_in_words tt.table) 0 p2.tables
  in
  (* Augmented output: every edge revealed by a successful decode. *)
  let accessed = ref [] in
  Hashtbl.iter
    (fun idx () ->
      let a, b = Edge_index.decode ~n idx in
      accessed := (a, b) :: !accessed)
    p1.accessed;
  Graph.iter_edges spanner (fun a b -> accessed := (a, b) :: !accessed);
  let terminals_per_level = Array.make prm.k 0 in
  Array.iter
    (fun { Clustering.level; _ } ->
      terminals_per_level.(level) <- terminals_per_level.(level) + 1)
    clustering.Clustering.terminals;
  if Ds_obs.Metrics.enabled () then begin
    Ds_obs.Metrics.incr m_fail_pass1 p1.decode_failures;
    Ds_obs.Metrics.incr m_fail_table !table_failures;
    Ds_obs.Metrics.incr m_fail_payload !payload_failures;
    Ds_obs.Metrics.incr m_recovered !recovered;
    (* The checkpoint blob is exactly the pass-1 state on the wire, so
       its length is the serialized-bytes column of the ledger entry. *)
    let bound = space_bound ~n ~k:prm.k in
    Ds_obs.Ledger.record ~phase:"two_pass.pass1" ~words:pass1_space
      ~wire_bytes:(String.length (serialize_pass1 p1))
      bound;
    Ds_obs.Ledger.record ~phase:"two_pass.total"
      ~words:(pass1_space + pass2_space) bound
  end;
  {
    spanner;
    accessed_edges = !accessed;
    clustering;
    space_words = pass1_space + pass2_space;
    diagnostics =
      {
        terminals_per_level;
        pass1_decode_failures = p1.decode_failures;
        table_decode_failures = !table_failures;
        payload_decode_failures = !payload_failures;
        recovered_edges = !recovered;
      };
  }

(* Every entry point runs under one "spanner.run" root span, so a whole
   two-pass run (including a checkpoint/resume pair) reconstructs as a
   single trace tree with pass 1 / clustering / pass 2 as children. *)
let run ?(ingest = `Sequential) rng ~n ~params:prm stream =
  Ds_obs.Trace.with_span "spanner.run" @@ fun () ->
  let rng, p1 = derive rng ~n ~prm in
  pass1_fill p1 ~ingest stream;
  finish rng p1 ~n ~prm stream

let checkpoint ?(ingest = `Sequential) rng ~n ~params:prm stream =
  Ds_obs.Trace.with_span "spanner.run" @@ fun () ->
  let _rng, p1 = derive rng ~n ~prm in
  pass1_fill p1 ~ingest stream;
  let data = Ds_obs.Trace.with_span "spanner.checkpoint" (fun () -> serialize_pass1 p1) in
  Ds_obs.Metrics.incr m_ckpt_bytes (String.length data);
  data

let resume_result rng ~n ~params:prm ~checkpoint stream =
  Ds_obs.Trace.with_span "spanner.run" @@ fun () ->
  let rng, p1 = derive rng ~n ~prm in
  match Ds_obs.Trace.with_span "spanner.resume.load" (fun () -> load_pass1_result p1 checkpoint) with
  | Ok () ->
      Ds_obs.Metrics.incr m_resume_ok 1;
      Ok (finish rng p1 ~n ~prm stream)
  | Error e ->
      Ds_obs.Metrics.incr m_resume_rejected 1;
      Error e

let resume rng ~n ~params:prm ~checkpoint stream =
  match resume_result rng ~n ~params:prm ~checkpoint stream with
  | Ok r -> r
  | Error e -> failwith ("Two_pass_spanner: " ^ checkpoint_error_to_string e)

let resume_or_restart ?(ingest = `Sequential) rng ~n ~params:prm ~checkpoint stream =
  match resume_result rng ~n ~params:prm ~checkpoint stream with
  | Ok r -> (r, `Resumed)
  | Error e ->
      (* The failed load may have partially overwritten the rebuilt pass-1
         state, so fall back to recomputing pass 1 from the stream.
         [split_named] derives children without consuming the caller PRNG,
         so this replays the exact chain of [run] and the recomputed result
         is bit-identical to an uninterrupted run. *)
      (run ~ingest rng ~n ~params:prm stream, `Recomputed e)
