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
  (* S^r_j(u), r in [1, k-1]: every vertex shares the (r, j) structure
     configs.(r-1).(j), and u's grid sits at [grid_off p u (r-1) j] in
     [words], vertex-major. *)
  configs : Sparse_recovery.config array array;
  grid_words : int;
  words : Words.t;
  accessed : (int, unit) Hashtbl.t; (* edge indices revealed by any decode *)
  mutable decode_failures : int;
}

let[@inline] grid_off p u ri j = ((((u * (p.prm.k - 1)) + ri) * p.levels) + j) * p.grid_words

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
  let configs =
    Array.init (max 0 (prm.k - 1)) (fun ri ->
        Array.init levels (fun j ->
            Sparse_recovery.make_config
              (Prng.split_named rng (Printf.sprintf "s.%d.%d" ri j))
              ~dim:edge_dim ~params:sr_params))
  in
  let grid_words = if prm.k > 1 then Sparse_recovery.grid_words configs.(0).(0) else 0 in
  {
    n;
    prm;
    edge_dim;
    levels;
    level_hash = Kwise.create (Prng.split_named rng "elevels") ~k:prm.hash_degree;
    centers;
    configs;
    grid_words;
    words = Words.create (n * Array.length configs * levels * grid_words);
    accessed = Hashtbl.create 1024;
    decode_failures = 0;
  }

let pass1_update p (u : Update.t) =
  let delta = Update.delta u in
  let idx = Edge_index.encode ~n:p.n u.Update.u u.Update.v in
  let folded = Kwise.fold_key idx in
  let lvl = min (Kwise.level_folded p.level_hash folded) (p.levels - 1) in
  for r = 1 to p.prm.k - 1 do
    let cs = p.configs.(r - 1) in
    if p.centers.(r).(u.Update.v) then
      for j = 0 to lvl do
        Sparse_recovery.update_folded cs.(j) p.words
          ~off:(grid_off p u.Update.u (r - 1) j)
          ~index:idx ~folded ~delta
      done;
    if p.centers.(r).(u.Update.u) then
      for j = 0 to lvl do
        Sparse_recovery.update_folded cs.(j) p.words
          ~off:(grid_off p u.Update.v (r - 1) j)
          ~index:idx ~folded ~delta
      done
  done

let pass1_fill p stream =
  Ds_obs.Trace.with_span "spanner.pass1" (fun () -> Array.iter (pass1_update p) stream)

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
        let len = p.grid_words in
        let acc = Words.create len in
        Words.blit ~src:p.words ~src_pos:(grid_off p first (r - 1) j) ~dst:acc ~dst_pos:0 ~len;
        List.iter
          (fun v ->
            Words.add_tri_range ~src:p.words ~src_pos:(grid_off p v (r - 1) j) ~dst:acc
              ~dst_pos:0 ~len)
          rest;
        acc
  in
  let rec scan j =
    if j < 0 then None
    else
      match Sparse_recovery.decode_at p.configs.(r - 1).(j) (merged j) ~off:0 with
      | Empty -> scan (j - 1)
      | Found assoc -> (
          record assoc;
          match pick assoc with
          | Some _ as res -> res
          | None -> scan (j - 1) (* decoded only intra-cluster edges; go denser *))
      | Declined ->
          (* Window [1, B] skipped between levels: count and fall back to
             terminal (costs table space, never correctness). *)
          p.decode_failures <- p.decode_failures + 1;
          None
  in
  scan (p.levels - 1)

(* ------------------------------------------------------------------ *)
(* Pass 2: terminal-cluster hash tables.                                *)
(* ------------------------------------------------------------------ *)

(* A key [v]'s payload sketches N(v) ∩ T as a vector over T's member
   ranks.  [Exact] stores it whole: one counter per member except rank 0,
   whose count is the key's weight minus the stored ones.  A table takes
   it whenever those [|T| - 1] counters fit in the L0 sampler's state and
   keeps the [Sampler] otherwise, so no table grows. *)
type payload = Exact | Sampler of Packed_l0.config

type terminal_table = { members : int array; table : Sketch_table.t; payload : payload }

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
        let cfg =
          Packed_l0.make_config
            (Prng.split_named trng "payload")
            ~dim:(Array.length members) ~params:prm.payload
        in
        let exact_len = Array.length members - 1 and sampler_len = Packed_l0.state_len cfg in
        let payload, payload_len =
          if exact_len <= sampler_len then (Exact, exact_len) else (Sampler cfg, sampler_len)
        in
        let table =
          Sketch_table.create (Prng.split_named trng "cells") ~key_dim:n ~capacity
            ~rows:prm.table_rows ~hash_degree:prm.hash_degree ~payload_len
        in
        { members; table; payload })
      clustering.Clustering.terminals
  in
  { terminal_id_of; rank_in_terminal; tables }

(* Pass 2 in table order.  An update whose endpoints lie in different
   terminal clusters makes two routes, one into each endpoint's table.
   Taken in stream order they scatter over every table at once (3.4 MB
   of cells on a churned n = 256 stream); grouped by table, one table is
   hot at a time.  The grouping is a counting sort on the source's
   terminal id, so each table still sees its routes in stream order, and
   every table and payload counter is a plain integer add, so the order
   cannot change a word.

   A route is one word, [key lsl (route_bits + 1) lor rank lsl 1 lor neg]:
   the outside endpoint (the table key), the inside endpoint's rank in its
   cluster and 1 for a deletion.  Both vertex fields take [route_bits]
   bits, which is why [derive] rejects [n > max_n]. *)
let route_bits = 30
let max_n = 1 lsl route_bits

let pass2_fill p2 stream =
  let tid = p2.terminal_id_of and rank = p2.rank_in_terminal in
  let tables = Array.length p2.tables in
  (* [starts.(t)] is the first route of table [t]; [starts.(tables)] the
     route count. *)
  let starts = Array.make (tables + 1) 0 in
  Array.iter
    (fun (e : Update.t) ->
      let a = tid.(e.Update.u) and b = tid.(e.Update.v) in
      if a <> b then begin
        starts.(a + 1) <- starts.(a + 1) + 1;
        starts.(b + 1) <- starts.(b + 1) + 1
      end)
    stream;
  for t = 1 to tables do
    starts.(t) <- starts.(t) + starts.(t - 1)
  done;
  let routes = Array.make starts.(tables) 0 in
  let next = Array.sub starts 0 tables in
  let push t ~key ~src neg =
    routes.(next.(t)) <- (key lsl (route_bits + 1)) lor (rank.(src) lsl 1) lor neg;
    next.(t) <- next.(t) + 1
  in
  Array.iter
    (fun (e : Update.t) ->
      let u = e.Update.u and v = e.Update.v in
      let a = tid.(u) and b = tid.(v) in
      if a <> b then begin
        let neg = if Update.delta e < 0 then 1 else 0 in
        push a ~key:v ~src:u neg;
        push b ~key:u ~src:v neg
      end)
    stream;
  let no_payload _arr _off = () in
  Array.iteri
    (fun t tt ->
      for i = starts.(t) to starts.(t + 1) - 1 do
        let r = routes.(i) in
        let key = r lsr (route_bits + 1) in
        let delta = 1 - (2 * (r land 1)) in
        let rank = (r lsr 1) land (max_n - 1) in
        let write =
          match tt.payload with
          | Exact when rank = 0 -> no_payload
          | Exact ->
              fun arr off ->
                let o = off + rank - 1 in
                Words.unsafe_set arr o (Words.unsafe_get arr o + delta)
          | Sampler cfg ->
              (* The sampler's hashes are evaluated once per route; each
                 table row only adds the prepared contribution. *)
              let pl = Packed_l0.prepare cfg ~index:rank ~delta in
              fun arr off -> Packed_l0.update_prepared cfg pl arr ~off
        in
        Sketch_table.update tt.table ~key ~weight:delta ~write
      done)
    p2.tables

(* The rank of the member whose edge to a recovered key joins the
   spanner.  An exact payload gives the lowest rank with a positive count;
   with non-negative multiplicities the counts sum to [weight] > 0, so one
   exists. *)
let payload_rank tt ~weight payload =
  match tt.payload with
  | Sampler cfg -> (
      match Packed_l0.decode cfg payload ~off:0 with
      | Found (rank, _) -> Some rank
      | Empty | Declined -> None)
  | Exact ->
      let len = Words.length payload in
      let rec stored i acc = if i = len then acc else stored (i + 1) (acc + Words.get payload i) in
      let rec first i =
        if i = len then None else if Words.get payload i > 0 then Some (i + 1) else first (i + 1)
      in
      if weight > stored 0 0 then Some 0 else first 0

(* ------------------------------------------------------------------ *)
(* Checkpoint: the pass boundary, serialised.                          *)
(* ------------------------------------------------------------------ *)

(* Everything pass 2 needs and the stream cannot regenerate is (a) the
   pass-1 sketch counters and (b) the seed-derived structure. (b) is rebuilt
   by replaying the same PRNG chain in [resume], so the checkpoint carries
   only (a) plus enough of (n, params) to verify the caller replays the
   chain with the same inputs, inside the {!Envelope} every versioned
   message shares. *)

let checkpoint_magic = "TPS1"

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

(* Every grid in layout order (vertex, then r, then level). *)
let iter_grids p1 f =
  for u = 0 to p1.n - 1 do
    Array.iteri (fun ri row -> Array.iteri (fun j c -> f c ~off:(grid_off p1 u ri j)) row) p1.configs
  done

let serialize_pass1 p1 =
  Envelope.seal ~magic:checkpoint_magic (fun sink ->
      Wire.write_int sink p1.n;
      write_params sink p1.prm;
      Wire.write_int sink p1.levels;
      iter_grids p1 (fun c ~off -> Sparse_recovery.write_at c p1.words ~off sink))

type checkpoint_error = Envelope of Envelope.error | Header_mismatch of { field : string }

let checkpoint_error_to_string = function
  | Envelope e -> Envelope.error_to_string e
  | Header_mismatch { field } ->
      Printf.sprintf "checkpoint %s mismatch (taken with different inputs)" field

let pp_checkpoint_error ppf e = Format.pp_print_string ppf (checkpoint_error_to_string e)

(* On [Error] past the header checks the destination's counters may be
   partially overwritten — callers must discard [p1] (what
   [resume_or_restart] does by recomputing pass 1 from the stream). *)
let load_pass1_result p1 data =
  Envelope.unseal ~magic:checkpoint_magic ~wrap:(fun e -> Envelope e) data (fun src ->
      if Wire.read_int src <> p1.n then Error (Header_mismatch { field = "n" })
      else if read_params src <> p1.prm then Error (Header_mismatch { field = "params" })
      else if Wire.read_int src <> p1.levels then Error (Header_mismatch { field = "levels" })
      else
        Ok (iter_grids p1 (fun c ~off -> Sparse_recovery.read_at c p1.words ~off src)))
  |> Result.map fst


(* ------------------------------------------------------------------ *)

(* The PRNG chain is the contract between [run], [checkpoint] and [resume]:
   all three derive pass-1 structure from split_named rng
   "two_pass_spanner" -> "pass1" and pass-2 structure from -> "pass2", so a
   resumed process rebuilds hash functions bit-identical to the
   checkpointing one from the same caller seed. *)
let derive rng ~n ~prm =
  if prm.k < 1 then invalid_arg "Two_pass_spanner: k must be >= 1";
  if n > max_n then invalid_arg "Two_pass_spanner: n must be <= 2^30";
  Ds_obs.Trace.with_span "spanner.derive" @@ fun () ->
  let rng = Prng.split_named rng "two_pass_spanner" in
  (rng, make_pass1 (Prng.split_named rng "pass1") ~n ~prm)

(* Space of pass 1: per-vertex cells plus one shared hash set per (r, j).
   Shared with the space ledger, which reports the measured constant of
   this quantity against [space_bound]. *)
let pass1_space_words p1 =
  let per_sketch =
    if p1.prm.k > 1 then Sparse_recovery.space_in_words_of p1.configs.(0).(0) else 0
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
  Ds_obs.Trace.with_span "spanner.pass2" (fun () -> pass2_fill p2 stream);
  (* Assemble the spanner. *)
  let spanner = Graph.create n in
  let add a b = if a <> b && not (Graph.mem_edge spanner a b) then Graph.add_edge spanner a b in
  List.iter (fun (a, b) -> add a b) clustering.Clustering.witnesses;
  let table_failures = ref 0 and payload_failures = ref 0 and recovered = ref 0 in
  Ds_obs.Trace.with_span "spanner.extract" (fun () ->
      Array.iter
        (fun tt ->
          match Sketch_table.decode tt.table with
          | Empty -> ()
          | Declined -> incr table_failures
          | Found entries ->
              List.iter
                (fun (key, weight, payload) ->
                  if weight > 0 then
                    match payload_rank tt ~weight payload with
                    | Some rank ->
                        incr recovered;
                        add tt.members.(rank) key
                    | None -> incr payload_failures)
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
let run rng ~n ~params:prm stream =
  Ds_obs.Trace.with_span "spanner.run" @@ fun () ->
  let rng, p1 = derive rng ~n ~prm in
  pass1_fill p1 stream;
  finish rng p1 ~n ~prm stream

let checkpoint rng ~n ~params:prm stream =
  Ds_obs.Trace.with_span "spanner.run" @@ fun () ->
  let _rng, p1 = derive rng ~n ~prm in
  pass1_fill p1 stream;
  Ds_obs.Trace.with_span "spanner.checkpoint" (fun () -> serialize_pass1 p1)

let resume_result rng ~n ~params:prm ~checkpoint stream =
  Ds_obs.Trace.with_span "spanner.run" @@ fun () ->
  let rng, p1 = derive rng ~n ~prm in
  match Ds_obs.Trace.with_span "spanner.resume.load" (fun () -> load_pass1_result p1 checkpoint) with
  | Ok () -> Ok (finish rng p1 ~n ~prm stream)
  | Error e -> Error e

let resume rng ~n ~params:prm ~checkpoint stream =
  match resume_result rng ~n ~params:prm ~checkpoint stream with
  | Ok r -> r
  | Error e -> failwith ("Two_pass_spanner: " ^ checkpoint_error_to_string e)

let resume_or_restart rng ~n ~params:prm ~checkpoint stream =
  match resume_result rng ~n ~params:prm ~checkpoint stream with
  | Ok r -> (r, `Resumed)
  | Error e ->
      (* The failed load may have partially overwritten the rebuilt pass-1
         state, so fall back to recomputing pass 1 from the stream.
         [split_named] derives children without consuming the caller PRNG,
         so this replays the exact chain of [run] and the recomputed result
         is bit-identical to an uninterrupted run. *)
      (run rng ~n ~params:prm stream, `Recomputed e)
