open Ds_util
open Ds_sketch

type params = { banks : int; levels : int; rows : int; cols : int; hash_degree : int }

let default_params = { banks = 2; levels = 12; rows = 5; cols = 1024; hash_degree = 6 }

(* One contiguous off-heap buffer holds every counter of every bank and
   level, laid out bank-major:

     slot(b, l) = ((b * levels) + l) * rows * cols

   Each slot is a CountSketch table over the same edge-index space;
   [slots] keeps each slot's hash structure once, in slot order, and the
   tables are word ranges of the buffer, so merge/subtract/zero/ship are
   single whole-buffer calls and the LSK1 body is one window pass. *)
type t = {
  dim : int;
  prm : params;
  level_hash : Kwise.t array; (* one nested-sampling hash per bank *)
  slots : Count_sketch.config array; (* slot (b * levels) + l *)
  words : Words.t;
}

let[@inline] slot_words prm = prm.rows * prm.cols
let[@inline] slot prm ~bank ~level = (bank * prm.levels) + level

let create rng ~dim ~params:prm =
  if prm.banks < 1 || prm.levels < 1 || prm.rows < 1 || prm.cols < 1 then
    invalid_arg "Level_bank.create: bad params";
  if dim < 1 then invalid_arg "Level_bank.create: bad dimension";
  let cs_params =
    { Count_sketch.rows = prm.rows; cols = prm.cols; hash_degree = prm.hash_degree }
  in
  {
    dim;
    prm;
    level_hash =
      Array.init prm.banks (fun b ->
          Kwise.create
            (Prng.split_named rng (Printf.sprintf "sample%d" b))
            ~k:prm.hash_degree);
    slots =
      Array.init (prm.banks * prm.levels) (fun s ->
          let brng = Prng.split_named rng (Printf.sprintf "bank%d" (s / prm.levels)) in
          Count_sketch.make_config
            (Prng.split_named brng (Printf.sprintf "level%d" (s mod prm.levels)))
            ~dim ~params:cs_params);
    words = Words.create (prm.banks * prm.levels * slot_words prm);
  }

let params t = t.prm
let dim t = t.dim

let[@inline] check_index t index what =
  if index < 0 || index >= t.dim then invalid_arg ("Level_bank." ^ what ^ ": index out of range")

let level_of t ~bank ~index = min (t.prm.levels - 1) (Kwise.level t.level_hash.(bank) index)

let sample_level t ~bank ~index =
  check_index t index "sample_level";
  level_of t ~bank ~index

let update t ~index ~delta =
  check_index t index "update";
  (* Each bank routes the update into exactly one level: the edge's
     geometric class [g(e)] (capped into the last level). The paper's nested
     sample [E_l] is the union of classes >= l; decode re-derives [g(e)]
     from the seed per candidate, so storing the partition instead of the
     nested prefixes keeps the same sampling semantics while halving the
     collision mass at every level. *)
  for b = 0 to t.prm.banks - 1 do
    let s = slot t.prm ~bank:b ~level:(level_of t ~bank:b ~index) in
    Count_sketch.update_at t.slots.(s) t.words ~off:(s * slot_words t.prm) ~index ~delta
  done

(* The slot offset is arithmetic over unchecked buffer reads, so a bad
   bank or level must be refused here rather than read from a
   neighbouring slot. *)
let query t ~bank ~level ~index =
  check_index t index "query";
  if bank < 0 || bank >= t.prm.banks then invalid_arg "Level_bank.query: bank out of range";
  if level < 0 || level >= t.prm.levels then invalid_arg "Level_bank.query: level out of range";
  let s = slot t.prm ~bank ~level in
  Count_sketch.estimate_at t.slots.(s) t.words ~off:(s * slot_words t.prm) index

let check_compatible t s =
  if t.dim <> s.dim || t.prm <> s.prm then invalid_arg "Level_bank: incompatible banks"

let add t s =
  check_compatible t s;
  Words.add t.words s.words

let sub t s =
  check_compatible t s;
  Words.sub t.words s.words

let reset t = Words.fill t.words 0

let clone_zero t = { t with words = Words.create (Words.length t.words) }

let space_in_words t =
  (* Count_sketch.space_in_words_of includes each table, but every table is
     a range of the shared buffer — count the buffer once and keep only the
     per-slot hash-coefficient words. *)
  Words.length t.words
  + Array.fold_left (fun a h -> a + Kwise.space_in_words h) 0 t.level_hash
  + Array.fold_left
      (fun a c -> a + (Count_sketch.space_in_words_of c - slot_words t.prm))
      0 t.slots

let write_body t sink =
  Wire.write_tag sink "sp1b";
  Wire.write_int sink t.dim;
  (* One window per (bank, level) slot: the body is a concatenation of
     CountSketch tables in layout order, so a reader can locate any level
     without decoding the rest. *)
  for s = 0 to Array.length t.slots - 1 do
    Words.write_wire_array sink t.words ~pos:(s * slot_words t.prm) ~len:(slot_words t.prm)
  done

let read_body t src =
  Wire.expect_tag src "sp1b";
  if Wire.read_int src <> t.dim then failwith "Level_bank.read_body: dimension mismatch";
  for s = 0 to Array.length t.slots - 1 do
    Words.read_wire_array ~what:"Level_bank.read_body" src t.words ~pos:(s * slot_words t.prm)
      ~len:(slot_words t.prm)
  done

module Linear = struct
  type nonrec t = t

  let family = "sparsify1p"
  let dim = dim
  let shape t = [| t.dim; t.prm.banks; t.prm.levels; t.prm.rows; t.prm.cols; t.prm.hash_degree |]
  let clone_zero = clone_zero
  let add = add
  let sub = sub
  let update = update
  let reset = reset
  let space_in_words = space_in_words
  let write_body = write_body
  let read_body = read_body
end
