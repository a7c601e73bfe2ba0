open Ds_util

type params = { rows : int; cols : int; hash_degree : int }

(* The rows x cols counter table is [rows * cols] words in row-major
   order (row [r] col [c] at [r*cols + c]).  A [config] is the table's
   hash structure; a standalone sketch owns its table, and a bank of
   sketches (Level_bank) keeps one config per slot and addresses each
   table by its word offset in one shared buffer: merge is one plain-add
   kernel pass, replicas are one zeroed allocation. *)
type config = { dim : int; prm : params; bucket_hash : Kwise.t array; sign_hash : Kwise.t array }
type t = { config : config; table : Words.t }

let default_params = { rows = 5; cols = 256; hash_degree = 6 }

let make_config rng ~dim ~params:prm =
  if prm.rows < 1 || prm.cols < 1 then invalid_arg "Count_sketch.create: bad params";
  let mk tag i = Kwise.create (Prng.split_named rng (Printf.sprintf "%s%d" tag i)) ~k:prm.hash_degree in
  {
    dim;
    prm;
    bucket_hash = Array.init prm.rows (mk "bucket");
    sign_hash = Array.init prm.rows (mk "sign");
  }

let create rng ~dim ~params =
  let config = make_config rng ~dim ~params in
  { config; table = Words.create (params.rows * params.cols) }

let sign c r index = if Kwise.eval c.sign_hash.(r) index land 1 = 0 then 1 else -1
let[@inline] cell c r col = (r * c.prm.cols) + col

let update_at c w ~off ~index ~delta =
  for r = 0 to c.prm.rows - 1 do
    let i = off + cell c r (Kwise.to_range c.bucket_hash.(r) index ~bound:c.prm.cols) in
    Words.unsafe_set w i (Words.unsafe_get w i + (delta * sign c r index))
  done

let update t ~index ~delta =
  if index < 0 || index >= t.config.dim then invalid_arg "Count_sketch.update: index out of range";
  update_at t.config t.table ~off:0 ~index ~delta

let estimate_at c w ~off index =
  let ests = Array.make c.prm.rows 0 in
  for r = 0 to c.prm.rows - 1 do
    let i = off + cell c r (Kwise.to_range c.bucket_hash.(r) index ~bound:c.prm.cols) in
    ests.(r) <- Words.unsafe_get w i * sign c r index
  done;
  Stats.median_int ests

let estimate t index =
  if index < 0 || index >= t.config.dim then
    invalid_arg "Count_sketch.estimate: index out of range";
  estimate_at t.config t.table ~off:0 index

let heavy_hitters t ~candidates ~threshold =
  List.filter_map
    (fun i ->
      let e = estimate t i in
      if abs e >= threshold then Some (i, e) else None)
    candidates

let check_compatible t s =
  if t.config.dim <> s.config.dim || t.config.prm <> s.config.prm then
    invalid_arg "Count_sketch: incompatible sketches"

let add t s =
  check_compatible t s;
  Words.add t.table s.table

let sub t s =
  check_compatible t s;
  Words.sub t.table s.table

let copy t = { t with table = Words.copy t.table }
let clone_zero t = { t with table = Words.create (Words.length t.table) }
let reset t = Words.fill t.table 0

let space_in_words_of c =
  (c.prm.rows * c.prm.cols)
  + Array.fold_left (fun a h -> a + Kwise.space_in_words h) 0 c.bucket_hash
  + Array.fold_left (fun a h -> a + Kwise.space_in_words h) 0 c.sign_hash

let space_in_words t = space_in_words_of t.config

let write t sink =
  let c = t.config in
  Wire.write_tag sink "cts";
  Wire.write_int sink c.dim;
  for r = 0 to c.prm.rows - 1 do
    Words.write_wire_array sink t.table ~pos:(r * c.prm.cols) ~len:c.prm.cols
  done

let read_into t src =
  let c = t.config in
  Wire.expect_tag src "cts";
  if Wire.read_int src <> c.dim then failwith "Count_sketch.read_into: dimension mismatch";
  for r = 0 to c.prm.rows - 1 do
    Words.read_wire_array ~what:"Count_sketch.read_into" src t.table ~pos:(r * c.prm.cols)
      ~len:c.prm.cols
  done

module Linear = struct
  type nonrec t = t

  let family = "count_sketch"
  let dim t = t.config.dim

  let shape t =
    let c = t.config in
    [| c.dim; c.prm.rows; c.prm.cols; c.prm.hash_degree |]

  let clone_zero = clone_zero
  let add = add
  let sub = sub
  let update = update
  let reset = reset
  let space_in_words = space_in_words
  let write_body = write
  let read_body = read_into
end
