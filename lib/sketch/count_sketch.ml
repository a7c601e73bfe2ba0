open Ds_util

type params = { rows : int; cols : int; hash_degree : int }

(* The rows x cols counter table is one flat off-heap buffer in row-major
   order (row [r] col [c] at [r*cols + c]): merge is one plain-add kernel
   pass, replicas are one zeroed allocation. *)
type t = {
  dim : int;
  prm : params;
  bucket_hash : Kwise.t array;
  sign_hash : Kwise.t array;
  table : Words.t;
}

let default_params = { rows = 5; cols = 256; hash_degree = 6 }

let make rng ~dim ~params:prm ~table =
  if prm.rows < 1 || prm.cols < 1 then invalid_arg "Count_sketch.create: bad params";
  let mk tag i = Kwise.create (Prng.split_named rng (Printf.sprintf "%s%d" tag i)) ~k:prm.hash_degree in
  {
    dim;
    prm;
    bucket_hash = Array.init prm.rows (mk "bucket");
    sign_hash = Array.init prm.rows (mk "sign");
    table;
  }

let create rng ~dim ~params = make rng ~dim ~params ~table:(Words.create (params.rows * params.cols))

let create_over rng ~dim ~params ~table =
  if Words.length table <> params.rows * params.cols then
    invalid_arg "Count_sketch.create_over: table length <> rows * cols";
  make rng ~dim ~params ~table

let rebind t ~table =
  if Words.length table <> Words.length t.table then
    invalid_arg "Count_sketch.rebind: table length mismatch";
  { t with table }

let sign t r index = if Kwise.eval t.sign_hash.(r) index land 1 = 0 then 1 else -1
let[@inline] cell t r c = (r * t.prm.cols) + c

let update t ~index ~delta =
  if index < 0 || index >= t.dim then invalid_arg "Count_sketch.update: index out of range";
  for r = 0 to t.prm.rows - 1 do
    let c = Kwise.to_range t.bucket_hash.(r) index ~bound:t.prm.cols in
    let i = cell t r c in
    Words.unsafe_set t.table i (Words.unsafe_get t.table i + (delta * sign t r index))
  done

let estimate t index =
  if index < 0 || index >= t.dim then invalid_arg "Count_sketch.estimate: index out of range";
  let ests = Array.make t.prm.rows 0 in
  for r = 0 to t.prm.rows - 1 do
    let c = Kwise.to_range t.bucket_hash.(r) index ~bound:t.prm.cols in
    ests.(r) <- Words.unsafe_get t.table (cell t r c) * sign t r index
  done;
  Stats.median_int ests

let heavy_hitters t ~candidates ~threshold =
  List.filter_map
    (fun i ->
      let e = estimate t i in
      if abs e >= threshold then Some (i, e) else None)
    candidates

let check_compatible t s =
  if t.dim <> s.dim || t.prm <> s.prm then invalid_arg "Count_sketch: incompatible sketches"

let add t s =
  check_compatible t s;
  Words.add t.table s.table

let sub t s =
  check_compatible t s;
  Words.sub t.table s.table

let copy t = { t with table = Words.copy t.table }
let clone_zero t = { t with table = Words.create (Words.length t.table) }
let reset t = Words.fill t.table 0

let space_in_words t =
  (t.prm.rows * t.prm.cols)
  + Array.fold_left (fun a h -> a + Kwise.space_in_words h) 0 t.bucket_hash
  + Array.fold_left (fun a h -> a + Kwise.space_in_words h) 0 t.sign_hash

let write t sink =
  Wire.write_tag sink "cts";
  Wire.write_int sink t.dim;
  for r = 0 to t.prm.rows - 1 do
    Words.write_wire_array sink t.table ~pos:(r * t.prm.cols) ~len:t.prm.cols
  done

let read_into t src =
  Wire.expect_tag src "cts";
  if Wire.read_int src <> t.dim then failwith "Count_sketch.read_into: dimension mismatch";
  for r = 0 to t.prm.rows - 1 do
    Words.read_wire_array ~what:"Count_sketch.read_into" src t.table ~pos:(r * t.prm.cols)
      ~len:t.prm.cols
  done

module Linear = struct
  type nonrec t = t

  let family = "count_sketch"
  let dim t = t.dim
  let shape t = [| t.dim; t.prm.rows; t.prm.cols; t.prm.hash_degree |]
  let clone_zero = clone_zero
  let add = add
  let sub = sub
  let update = update
  let reset = reset
  let space_in_words = space_in_words
  let write_body = write
  let read_body = read_into
end
