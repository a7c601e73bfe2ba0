open Ds_util

type params = { rows : int; reps : int; hash_degree : int }

(* The reps x rows counters are one flat off-heap buffer (rep [r] row [j]
   at [r*rows + j]): merge is one plain-add kernel pass. *)
type t = {
  dim : int;
  prm : params;
  signs : Kwise.t array array; (* reps x rows *)
  counters : Words.t; (* reps x rows : sum_i s(i) x_i *)
}

let default_params = { rows = 16; reps = 5; hash_degree = 4 }

let create rng ~dim ~params:prm =
  if prm.rows < 1 || prm.reps < 1 then invalid_arg "Ams_f2.create: bad params";
  if prm.hash_degree < 4 then invalid_arg "Ams_f2.create: need 4-wise independence";
  {
    dim;
    prm;
    signs =
      Array.init prm.reps (fun r ->
          Array.init prm.rows (fun j ->
              Kwise.create
                (Prng.split_named rng (Printf.sprintf "s%d.%d" r j))
                ~k:prm.hash_degree));
    counters = Words.create (prm.reps * prm.rows);
  }

let sign h index = if Kwise.eval h index land 1 = 0 then 1 else -1
let[@inline] cell t r j = (r * t.prm.rows) + j

let update t ~index ~delta =
  if index < 0 || index >= t.dim then invalid_arg "Ams_f2.update: index out of range";
  for r = 0 to t.prm.reps - 1 do
    for j = 0 to t.prm.rows - 1 do
      let i = cell t r j in
      Words.unsafe_set t.counters i
        (Words.unsafe_get t.counters i + (delta * sign t.signs.(r).(j) index))
    done
  done

let estimate t =
  let group r =
    let acc = ref 0.0 in
    for j = 0 to t.prm.rows - 1 do
      let c = float_of_int (Words.unsafe_get t.counters (cell t r j)) in
      acc := !acc +. (c *. c)
    done;
    !acc /. float_of_int t.prm.rows
  in
  Stats.median (Array.init t.prm.reps group)

let check_compatible t s =
  if t.dim <> s.dim || t.prm <> s.prm then invalid_arg "Ams_f2: incompatible sketches"

let add t s =
  check_compatible t s;
  Words.add t.counters s.counters

let space_in_words t =
  (t.prm.reps * t.prm.rows)
  + Array.fold_left
      (fun acc row -> Array.fold_left (fun a h -> a + Kwise.space_in_words h) acc row)
      0 t.signs

let write t sink =
  Wire.write_tag sink "af2";
  Wire.write_int sink t.dim;
  for r = 0 to t.prm.reps - 1 do
    Words.write_wire_array sink t.counters ~pos:(r * t.prm.rows) ~len:t.prm.rows
  done

let read_into t src =
  Wire.expect_tag src "af2";
  if Wire.read_int src <> t.dim then failwith "Ams_f2.read_into: dimension mismatch";
  for r = 0 to t.prm.reps - 1 do
    Words.read_wire_array ~what:"Ams_f2.read_into" src t.counters ~pos:(r * t.prm.rows)
      ~len:t.prm.rows
  done

module Linear = struct
  type nonrec t = t

  let family = "ams_f2"
  let dim t = t.dim
  let shape t = [| t.dim; t.prm.rows; t.prm.reps; t.prm.hash_degree |]
  let clone_zero t = { t with counters = Words.create (Words.length t.counters) }
  let add = add

  let sub t s =
    check_compatible t s;
    Words.sub t.counters s.counters

  let update = update
  let reset t = Words.fill t.counters 0
  let space_in_words = space_in_words
  let write_body = write
  let read_body = read_into
end
