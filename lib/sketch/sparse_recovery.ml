open Ds_util

type params = { sparsity : int; rows : int; hash_degree : int }

(* The whole rows x cols cell grid lives in one off-heap Words buffer of
   One_sparse triples, in row-major cell order (cell (r,c) at word offset
   3*(r*cols + c)).  [cells] holds views into that buffer: the hot update
   path addresses cells through the precomputed views, while merge, reset
   and replica cloning operate on the buffer as a whole (one add_tri /
   fill / blit instead of rows*cols cell calls). *)
type t = {
  dim : int;
  prm : params;
  cols : int;
  hashes : Kwise.t array; (* one bucket hash per row *)
  words : Words.t;
  cells : One_sparse.t array array; (* rows x cols views into [words] *)
}

let default_params ~sparsity = { sparsity; rows = 4; hash_degree = 6 }

let state_words t = t.prm.rows * t.cols * One_sparse.state_words

let make_cells ~rows ~cols proto words =
  Array.init rows (fun r ->
      Array.init cols (fun c ->
          One_sparse.view proto ~words ~off:(One_sparse.state_words * ((r * cols) + c))))

let create rng ~dim ~params:prm =
  if prm.sparsity < 1 then invalid_arg "Sparse_recovery.create: sparsity < 1";
  if prm.rows < 1 then invalid_arg "Sparse_recovery.create: rows < 1";
  let cols = max 2 (2 * prm.sparsity) in
  let hashes =
    Array.init prm.rows (fun r ->
        Kwise.create (Prng.split_named rng (Printf.sprintf "row%d" r)) ~k:prm.hash_degree)
  in
  let cell_rng = Prng.split_named rng "cells" in
  (* All cells share one fingerprint base so that peeling can subtract a
     recovered coordinate from any row; viewing every cell off one
     prototype also shares the fingerprint power ladder physically. *)
  let proto_cell = One_sparse.create (Prng.copy cell_rng) ~dim in
  let words = Words.create (prm.rows * cols * One_sparse.state_words) in
  let cells = make_cells ~rows:prm.rows ~cols proto_cell words in
  { dim; prm; cols; hashes; words; cells }

(* Unit deltas (edge insert/delete) skip the fingerprint multiply:
   [scale_int 1 x = x] and [scale_int (-1) x = neg x] exactly. *)
let[@inline] fingerprint_term t ~index ~delta =
  let pw = One_sparse.fingerprint_pow t.cells.(0).(0) index in
  if delta = 1 then pw
  else if delta = -1 then Field.neg pw
  else Field.scale_int delta pw

(* Hot path: the key is folded once, its square/fourth power and the
   fingerprint term computed once (all cells share one base), leaving one
   polynomial evaluation per row. *)
let[@inline] update_pows t ~index ~x ~x2 ~x4 ~delta =
  let term = fingerprint_term t ~index ~delta in
  for r = 0 to t.prm.rows - 1 do
    let c = Kwise.to_range_pows (Array.unsafe_get t.hashes r) ~x ~x2 ~x4 ~bound:t.cols in
    One_sparse.update_prepared
      (Array.unsafe_get (Array.unsafe_get t.cells r) c)
      ~index ~delta ~term
  done

let[@inline] update_folded t ~index ~folded ~delta =
  let x2 = Field.mul folded folded in
  let x4 = Field.mul x2 x2 in
  update_pows t ~index ~x:folded ~x2 ~x4 ~delta

(* Paired hot path for edge updates: [t] and [s] must be clones sharing hash
   functions and fingerprint base (the two endpoints' sketches within one
   Agm copy). The coordinate lands in the same bucket of both, with +delta
   in [t] and -delta in [s], so buckets and the fingerprint term are
   computed once and applied twice. *)
let[@inline] update_pows_pair t s ~index ~x ~x2 ~x4 ~delta =
  let term = fingerprint_term t ~index ~delta in
  let nterm = Field.neg term in
  let ndelta = -delta in
  for r = 0 to t.prm.rows - 1 do
    let c = Kwise.to_range_pows (Array.unsafe_get t.hashes r) ~x ~x2 ~x4 ~bound:t.cols in
    One_sparse.update_prepared
      (Array.unsafe_get (Array.unsafe_get t.cells r) c)
      ~index ~delta ~term;
    One_sparse.update_prepared
      (Array.unsafe_get (Array.unsafe_get s.cells r) c)
      ~index ~delta:ndelta ~term:nterm
  done

let[@inline] update_folded_pair t s ~index ~folded ~delta =
  let x2 = Field.mul folded folded in
  let x4 = Field.mul x2 x2 in
  update_pows_pair t s ~index ~x:folded ~x2 ~x4 ~delta

let update t ~index ~delta =
  if index < 0 || index >= t.dim then
    invalid_arg "Sparse_recovery.update: index out of range";
  update_folded t ~index ~folded:(Kwise.fold_key index) ~delta

let update_batch t updates =
  Array.iter (fun (index, delta) -> update t ~index ~delta) updates

let is_zero t =
  let n = Words.length t.words in
  let rec go i = i >= n || (Words.unsafe_get t.words i = 0 && go (i + 1)) in
  go 0

(* A snapshot copies the buffer once and views the copy — rows*cols cells,
   one allocation (peeling mutates the snapshot, never the sketch). *)
let snapshot t =
  let words = Words.copy t.words in
  make_cells ~rows:t.prm.rows ~cols:t.cols t.cells.(0).(0) words

(* Peel [work] in place; feed every recovered coordinate to [emit] and return
   true iff the residual cleared completely. [stop_early] aborts after the
   first recovery (for decode_any). *)
let peel t work ~stop_early ~emit =
  let progress = ref true in
  let recovered = ref 0 in
  let finished = ref false in
  while !progress && not !finished do
    progress := false;
    for r = 0 to t.prm.rows - 1 do
      if not !finished then
        for c = 0 to t.cols - 1 do
          if not !finished then
            match One_sparse.decode work.(r).(c) with
            | One (i, w) when Kwise.to_range t.hashes.(r) i ~bound:t.cols = c ->
                emit (i, w);
                incr recovered;
                for r' = 0 to t.prm.rows - 1 do
                  let c' = Kwise.to_range t.hashes.(r') i ~bound:t.cols in
                  One_sparse.update work.(r').(c') ~index:i ~delta:(-w)
                done;
                progress := true;
                if stop_early then finished := true
            | Zero | One _ | Many -> ()
        done
    done
  done;
  Array.for_all (fun row -> Array.for_all One_sparse.is_zero row) work

let decode t =
  let work = snapshot t in
  let acc = ref [] in
  let cleared = peel t work ~stop_early:false ~emit:(fun kv -> acc := kv :: !acc) in
  if cleared then Some !acc else None

let decode_any t =
  let work = snapshot t in
  let found = ref None in
  let _cleared = peel t work ~stop_early:true ~emit:(fun kv -> found := Some kv) in
  !found

let compatible t s =
  t.dim = s.dim && t.prm = s.prm && t.cols = s.cols
  && One_sparse.compatible t.cells.(0).(0) s.cells.(0).(0)

let check_compatible t s =
  if not (compatible t s) then invalid_arg "Sparse_recovery: incompatible sketches"

(* Merge is one triple-kernel pass over the whole grid: c0/c1 of every
   cell add as plain integers, c2 in the Mersenne field — bit-identical
   to the per-cell One_sparse loops this replaces. *)
let add t s =
  check_compatible t s;
  Words.add_tri t.words s.words

let sub t s =
  check_compatible t s;
  Words.sub_tri t.words s.words

let copy t =
  let words = Words.copy t.words in
  { t with words; cells = make_cells ~rows:t.prm.rows ~cols:t.cols t.cells.(0).(0) words }

let clone_zero t =
  let words = Words.create (Words.length t.words) in
  { t with words; cells = make_cells ~rows:t.prm.rows ~cols:t.cols t.cells.(0).(0) words }

(* Containers embed a clone inside their own allocation: the clone's
   buffer is a view of [words] at [off], so the parent can merge / zero /
   blit every embedded sketch with one buffer-level call. *)
let clone_into t ~words ~off =
  let w = Words.view words ~pos:off ~len:(Words.length t.words) in
  { t with words = w; cells = make_cells ~rows:t.prm.rows ~cols:t.cols t.cells.(0).(0) w }

let reset t = Words.fill t.words 0

let merge_many = function
  | [] -> invalid_arg "Sparse_recovery.merge_many: empty list"
  | first :: rest ->
      let acc = copy first in
      List.iter (fun s -> add acc s) rest;
      acc

let space_in_words t =
  let cell_words = 4 in
  let hash_words = Array.fold_left (fun acc h -> acc + Kwise.space_in_words h) 0 t.hashes in
  (t.prm.rows * t.cols * cell_words) + hash_words

let dim t = t.dim
let params t = t.prm

(* Cells are framed as (zero-run skip, counters) pairs: sketches of sparse
   shards are overwhelmingly zero cells, and a zero run costs one byte. The
   reader knows the total cell count, so no end marker is needed.  The scan
   is one pass over the contiguous buffer (a cell is zero iff its three
   words are). *)
let write t sink =
  Wire.write_tag sink "srec";
  Wire.write_int sink t.dim;
  Wire.write_int sink t.prm.rows;
  Wire.write_int sink t.cols;
  let w = t.words in
  let total = t.prm.rows * t.cols in
  let zero_cell i =
    let o = 3 * i in
    Words.unsafe_get w o = 0 && Words.unsafe_get w (o + 1) = 0 && Words.unsafe_get w (o + 2) = 0
  in
  let pos = ref 0 in
  while !pos < total do
    let start = !pos in
    while !pos < total && zero_cell !pos do
      incr pos
    done;
    Wire.write_int sink (!pos - start);
    if !pos < total then begin
      let o = 3 * !pos in
      Wire.write_int sink (Words.unsafe_get w o);
      Wire.write_int sink (Words.unsafe_get w (o + 1));
      Wire.write_int sink (Words.unsafe_get w (o + 2));
      incr pos
    end
  done;
  (* A trailing zero run ends exactly at [total]; if the last cell was
     non-zero the loop exits without a final skip, which the reader's
     position arithmetic handles. *)
  ()

let read_into t src =
  Wire.expect_tag src "srec";
  if Wire.read_int src <> t.dim then failwith "Sparse_recovery.read_into: dimension mismatch";
  if Wire.read_int src <> t.prm.rows || Wire.read_int src <> t.cols then
    failwith "Sparse_recovery.read_into: shape mismatch";
  let w = t.words in
  let total = t.prm.rows * t.cols in
  let pos = ref 0 in
  while !pos < total do
    let skip = Wire.read_int src in
    if skip < 0 || !pos + skip > total then failwith "Sparse_recovery.read_into: bad zero run";
    if skip > 0 then Words.fill_range w ~pos:(3 * !pos) ~len:(3 * skip) 0;
    pos := !pos + skip;
    if !pos < total then begin
      let o = 3 * !pos in
      Words.unsafe_set w o (Wire.read_int src);
      Words.unsafe_set w (o + 1) (Wire.read_int src);
      Words.unsafe_set w (o + 2) (Wire.read_int src);
      incr pos
    end
  done

module Linear = struct
  type nonrec t = t

  let family = "sparse_recovery"
  let dim t = t.dim
  let shape t = [| t.dim; t.prm.sparsity; t.prm.rows; t.prm.hash_degree; t.cols |]
  let clone_zero = clone_zero
  let add = add
  let sub = sub
  let update = update
  let reset = reset
  let space_in_words = space_in_words
  let write_body = write
  let read_body = read_into
end
