open Ds_util

type params = { sparsity : int; reps : int; hash_degree : int }

(* All reps x levels cell grids live back to back in one off-heap buffer
   (rep [i] level [j] at word offset [(i*levels + j) * level_words]);
   [grids] keeps each grid's Sparse_recovery structure once, and merge is
   one kernel pass. *)
type t = {
  dim : int;
  prm : params;
  levels : int;
  level_hashes : Kwise.t array; (* one per rep *)
  grids : Sparse_recovery.config array array; (* reps x levels *)
  level_words : int;
  words : Words.t;
}

let default_params = { sparsity = 8; reps = 3; hash_degree = 6 }

let levels_for dim =
  let rec go l acc = if acc >= dim then l + 1 else go (l + 1) (acc * 2) in
  go 0 1

let create rng ~dim ~params:prm =
  if prm.reps < 1 then invalid_arg "F0.create: reps < 1";
  let levels = levels_for dim in
  let sr_params =
    { Sparse_recovery.sparsity = prm.sparsity; rows = 3; hash_degree = prm.hash_degree }
  in
  let rep_rng i = Prng.split_named rng (Printf.sprintf "f0rep%d" i) in
  let grids =
    Array.init prm.reps (fun i ->
        Array.init levels (fun j ->
            Sparse_recovery.make_config
              (Prng.split_named (rep_rng i) (Printf.sprintf "lvl%d" j))
              ~dim ~params:sr_params))
  in
  let level_words = Sparse_recovery.grid_words grids.(0).(0) in
  {
    dim;
    prm;
    levels;
    level_hashes =
      Array.init prm.reps (fun i ->
          Kwise.create (Prng.split_named (rep_rng i) "levels") ~k:prm.hash_degree);
    grids;
    level_words;
    words = Words.create (prm.reps * levels * level_words);
  }

let[@inline] grid_off t i j = ((i * t.levels) + j) * t.level_words

let update t ~index ~delta =
  if index < 0 || index >= t.dim then invalid_arg "F0.update: index out of range";
  let folded = Kwise.fold_key index in
  for i = 0 to t.prm.reps - 1 do
    let lvl = min (Kwise.level_folded t.level_hashes.(i) folded) (t.levels - 1) in
    for j = 0 to lvl do
      Sparse_recovery.update_folded t.grids.(i).(j) t.words ~off:(grid_off t i j) ~index ~folded
        ~delta
    done
  done

let estimate_rep t i =
  let rec go j =
    if j >= t.levels then t.dim (* nothing decoded: support is essentially full *)
    else
      match Sparse_recovery.decode_at t.grids.(i).(j) t.words ~off:(grid_off t i j) with
      | Some assoc -> List.length assoc * (1 lsl j)
      | None -> go (j + 1)
  in
  go 0

let estimate t = Stats.median_int (Array.init t.prm.reps (estimate_rep t))

let check_compatible t s =
  if
    t.dim <> s.dim || t.prm <> s.prm
    || not (Array.for_all2 (Array.for_all2 Sparse_recovery.compatible) t.grids s.grids)
  then invalid_arg "F0: incompatible sketches"

let add t s =
  check_compatible t s;
  Words.add_tri t.words s.words

let sub t s =
  check_compatible t s;
  Words.sub_tri t.words s.words

let copy t = { t with words = Words.copy t.words }
let clone_zero t = { t with words = Words.create (Words.length t.words) }
let reset t = Words.fill t.words 0

let space_in_words t =
  Array.fold_left (fun a h -> a + Kwise.space_in_words h) 0 t.level_hashes
  + Array.fold_left
      (Array.fold_left (fun a g -> a + Sparse_recovery.space_in_words_of g))
      0 t.grids

let write t sink =
  Wire.write_tag sink "f0";
  Wire.write_int sink t.levels;
  for i = 0 to t.prm.reps - 1 do
    for j = 0 to t.levels - 1 do
      Sparse_recovery.write_at t.grids.(i).(j) t.words ~off:(grid_off t i j) sink
    done
  done

let read_into t src =
  Wire.expect_tag src "f0";
  if Wire.read_int src <> t.levels then failwith "F0.read_into: level mismatch";
  for i = 0 to t.prm.reps - 1 do
    for j = 0 to t.levels - 1 do
      Sparse_recovery.read_at t.grids.(i).(j) t.words ~off:(grid_off t i j) src
    done
  done

module Linear = struct
  type nonrec t = t

  let family = "f0"
  let dim t = t.dim
  let shape t = [| t.dim; t.prm.sparsity; t.prm.reps; t.prm.hash_degree; t.levels |]
  let clone_zero = clone_zero
  let add = add
  let sub = sub
  let update = update
  let reset = reset
  let space_in_words = space_in_words
  let write_body = write
  let read_body = read_into
end
