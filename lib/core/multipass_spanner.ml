open Ds_util
open Ds_sketch
open Ds_graph
open Ds_stream

type params = {
  k : int;
  table_capacity_factor : float;
  table_rows : int;
  payload : Packed_l0.params;
  sampler : L0_sampler.params;
  hash_degree : int;
}

let default_params ~k =
  {
    k;
    table_capacity_factor = 3.0;
    table_rows = 3;
    payload = { Packed_l0.default_params with reps = 1; sparsity = 2 };
    sampler = L0_sampler.default_params;
    hash_degree = 6;
  }

type result = { spanner : Graph.t; passes : int; space_words : int }

let stretch_bound ~k = (2 * k) - 1

(* Per-vertex sketches for one pass: a sampler of edges into sampled
   clusters and a per-adjacent-cluster table. Only vertices whose cluster
   was not sampled carry them. *)
type vertex_sketch = {
  join_sampler : L0_sampler.t option; (* None in the final pass *)
  table : Sketch_table.t;
  payload_cfg : Packed_l0.config;
}

let run rng ~n ~params:prm stream =
  if prm.k < 1 then invalid_arg "Multipass_spanner.run: k must be >= 1";
  let rng = Prng.split_named rng "multipass" in
  let sample_rate = float_of_int n ** (-1.0 /. float_of_int prm.k) in
  let log2n = F0.levels_for n in
  let capacity =
    let ideal =
      prm.table_capacity_factor *. float_of_int log2n
      *. (float_of_int n ** (1.0 /. float_of_int prm.k))
    in
    max 8 (min (2 * n) (int_of_float (ceil ideal)))
  in
  let spanner = Graph.create n in
  let add a b = if a <> b && not (Graph.mem_edge spanner a b) then Graph.add_edge spanner a b in
  let cluster = Array.init n (fun v -> v) in
  let max_space = ref 0 in
  let run_pass ~pass_idx ~final ~sampled_cluster =
    let prng = Prng.split_named rng (Printf.sprintf "pass%d" pass_idx) in
    (* Shared payload configuration (per-vertex states, common hashes). *)
    let payload_cfg =
      Packed_l0.make_config (Prng.split_named prng "payload") ~dim:n ~params:prm.payload
    in
    let payload_len = Packed_l0.state_len payload_cfg in
    let needs_sketch v =
      cluster.(v) >= 0 && ((not final) && not sampled_cluster.(cluster.(v)) || final)
    in
    let sketches = Array.make n None in
    for v = 0 to n - 1 do
      if needs_sketch v then begin
        let vr = Prng.split_named prng (Printf.sprintf "v%d" v) in
        let join_sampler =
          if final then None
          else Some (L0_sampler.create (Prng.split_named vr "join") ~dim:n ~params:prm.sampler)
        in
        let table =
          Sketch_table.create (Prng.split_named vr "table") ~key_dim:n ~capacity
            ~rows:prm.table_rows ~hash_degree:prm.hash_degree ~payload_len
        in
        sketches.(v) <- Some { join_sampler; table; payload_cfg }
      end
    done;
    (* The pass itself. *)
    let feed a b delta =
      match sketches.(a) with
      | None -> ()
      | Some s ->
          (match s.join_sampler with
          | Some smp when sampled_cluster.(cluster.(b)) ->
              L0_sampler.update smp ~index:b ~delta
          | Some _ | None -> ());
          let pl = Packed_l0.prepare s.payload_cfg ~index:b ~delta in
          Sketch_table.update s.table ~key:cluster.(b) ~weight:delta ~write:(fun arr off ->
              Packed_l0.update_prepared s.payload_cfg pl arr ~off)
    in
    Array.iter
      (fun (u : Update.t) ->
        let a = u.Update.u and b = u.Update.v in
        if cluster.(a) >= 0 && cluster.(b) >= 0 && cluster.(a) <> cluster.(b) then begin
          let delta = Update.delta u in
          feed a b delta;
          feed b a delta
        end)
      stream;
    (* Space high-water mark. *)
    let pass_space =
      Array.fold_left
        (fun acc s ->
          match s with
          | None -> acc
          | Some { join_sampler; table; _ } ->
              acc
              + Sketch_table.space_in_words table
              + (match join_sampler with Some j -> L0_sampler.space_in_words j | None -> 0))
        0 sketches
    in
    if pass_space > !max_space then max_space := pass_space;
    (* Post-pass decoding. *)
    let connect_all_adjacent v s =
      match Sketch_table.decode s.table with
      | Empty | Declined -> ()
      | Found entries ->
          List.iter
            (fun (_, weight, payload) ->
              if weight > 0 then
                match Packed_l0.decode s.payload_cfg payload ~off:0 with
                | Found (w, _) -> add v w
                | Empty | Declined -> ())
            entries
    in
    for v = 0 to n - 1 do
      match sketches.(v) with
      | None -> ()
      | Some s ->
          if final then connect_all_adjacent v s
          else begin
            match s.join_sampler with
            | None -> ()
            | Some smp -> (
                match L0_sampler.decode smp with
                | Found (w, _) ->
                    (* Join the sampled cluster through the witness edge. *)
                    add v w;
                    cluster.(v) <- cluster.(w)
                | Empty | Declined ->
                    (* No sampled neighbour: keep one edge per adjacent
                       cluster and retire. *)
                    connect_all_adjacent v s;
                    cluster.(v) <- -1)
          end
    done
  in
  let no_sampling = Array.make n false in
  for round = 1 to prm.k - 1 do
    (* Sample surviving clusters. *)
    let srng = Prng.split_named rng (Printf.sprintf "sample%d" round) in
    let sampled_cluster = Array.make n false in
    let seen = Array.make n false in
    for v = 0 to n - 1 do
      if cluster.(v) >= 0 && not seen.(cluster.(v)) then begin
        seen.(cluster.(v)) <- true;
        sampled_cluster.(cluster.(v)) <- Prng.bernoulli srng sample_rate
      end
    done;
    run_pass ~pass_idx:round ~final:false ~sampled_cluster
  done;
  run_pass ~pass_idx:prm.k ~final:true ~sampled_cluster:no_sampling;
  { spanner; passes = prm.k; space_words = !max_space }
