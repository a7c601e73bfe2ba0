open Ds_util

type params = { sparsity : int; rows : int; hash_degree : int }

(* The rows x cols cell grid is [grid_words] words of One_sparse triples
   in row-major cell order (cell (r,c) at word offset 3*(r*cols + c)).
   A [config] is the grid's hash structure: the bucket hashes and the one
   fingerprint ladder every cell shares.  A standalone sketch owns its
   grid's buffer; containers keep one config per distinct structure and
   address each grid by its word offset in their own buffer, so merge,
   reset and replica cloning are buffer-level calls either way. *)
type config = {
  dim : int;
  prm : params;
  cols : int;
  hashes : Kwise.t array; (* one bucket hash per row *)
  cell : One_sparse.config;
}

type t = { config : config; words : Words.t }

let default_params ~sparsity = { sparsity; rows = 4; hash_degree = 6 }
let grid_words c = c.prm.rows * c.cols * One_sparse.state_words
let[@inline] cell_off c r col = One_sparse.state_words * ((r * c.cols) + col)

let make_config rng ~dim ~params:prm =
  if prm.sparsity < 1 then invalid_arg "Sparse_recovery.create: sparsity < 1";
  if prm.rows < 1 then invalid_arg "Sparse_recovery.create: rows < 1";
  let cols = max 2 (2 * prm.sparsity) in
  let hashes =
    Array.init prm.rows (fun r ->
        Kwise.create (Prng.split_named rng (Printf.sprintf "row%d" r)) ~k:prm.hash_degree)
  in
  (* All cells share one fingerprint base so that peeling can subtract a
     recovered coordinate from any row. *)
  let cell = One_sparse.make_config (Prng.split_named rng "cells") ~dim in
  { dim; prm; cols; hashes; cell }

let create rng ~dim ~params =
  let config = make_config rng ~dim ~params in
  { config; words = Words.create (grid_words config) }

(* Unit deltas (edge insert/delete) skip the fingerprint multiply:
   [scale_int 1 x = x] and [scale_int (-1) x = neg x] exactly. *)
let[@inline] fingerprint_term c ~index ~delta =
  let pw = One_sparse.fingerprint_pow c.cell index in
  if delta = 1 then pw
  else if delta = -1 then Field.neg pw
  else Field.scale_int delta pw

(* Hot path: the key is folded once, its square/fourth power and the
   fingerprint term computed once (all cells share one base), leaving one
   polynomial evaluation per row. *)
let[@inline] update_pows c w ~off ~index ~x ~x2 ~x4 ~delta =
  let term = fingerprint_term c ~index ~delta in
  for r = 0 to c.prm.rows - 1 do
    let col = Kwise.to_range_pows (Array.unsafe_get c.hashes r) ~x ~x2 ~x4 ~bound:c.cols in
    One_sparse.update_at w ~off:(off + cell_off c r col) ~index ~delta ~term
  done

let[@inline] update_folded c w ~off ~index ~folded ~delta =
  let x2 = Field.mul folded folded in
  let x4 = Field.mul x2 x2 in
  update_pows c w ~off ~index ~x:folded ~x2 ~x4 ~delta

(* Paired hot path for edge updates: the grids at [plus] and [minus] share
   [c] (the two endpoints' sketches within one Agm copy). The coordinate
   lands in the same bucket of both, with +delta at [plus] and -delta at
   [minus], so buckets and the fingerprint term are computed once and
   applied twice. *)
let[@inline] update_pows_pair c w ~plus ~minus ~index ~x ~x2 ~x4 ~delta =
  let term = fingerprint_term c ~index ~delta in
  let nterm = Field.neg term in
  let ndelta = -delta in
  for r = 0 to c.prm.rows - 1 do
    let col = Kwise.to_range_pows (Array.unsafe_get c.hashes r) ~x ~x2 ~x4 ~bound:c.cols in
    let o = cell_off c r col in
    One_sparse.update_at w ~off:(plus + o) ~index ~delta ~term;
    One_sparse.update_at w ~off:(minus + o) ~index ~delta:ndelta ~term:nterm
  done

let update t ~index ~delta =
  if index < 0 || index >= t.config.dim then
    invalid_arg "Sparse_recovery.update: index out of range";
  update_folded t.config t.words ~off:0 ~index ~folded:(Kwise.fold_key index) ~delta

let update_batch t updates =
  Array.iter (fun (index, delta) -> update t ~index ~delta) updates

let zero_range w ~pos ~len =
  let i = ref pos in
  while !i < pos + len && Words.unsafe_get w !i = 0 do
    incr i
  done;
  !i >= pos + len

let[@inline] zero_cell w o =
  Words.unsafe_get w o = 0 && Words.unsafe_get w (o + 1) = 0 && Words.unsafe_get w (o + 2) = 0

(* Peel a private copy of the grid at [off]: [Declined] unless the
   residual clears completely. *)
let decode_at c w ~off =
  let len = grid_words c in
  let work = Words.create len in
  Words.blit ~src:w ~src_pos:off ~dst:work ~dst_pos:0 ~len;
  let acc = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    for r = 0 to c.prm.rows - 1 do
      for col = 0 to c.cols - 1 do
        match One_sparse.decode_at c.cell work ~off:(cell_off c r col) with
        | Found (i, v) when Kwise.to_range c.hashes.(r) i ~bound:c.cols = col ->
            acc := (i, v) :: !acc;
            let term = Field.scale_int (-v) (One_sparse.fingerprint_pow c.cell i) in
            for r' = 0 to c.prm.rows - 1 do
              let col' = Kwise.to_range c.hashes.(r') i ~bound:c.cols in
              One_sparse.update_at work ~off:(cell_off c r' col') ~index:i ~delta:(-v) ~term
            done;
            progress := true
        | Empty | Found _ | Declined -> ()
      done
    done
  done;
  if not (zero_range work ~pos:0 ~len) then Decoded.Declined
  else match !acc with [] -> Empty | found -> Found found

let decode t = decode_at t.config t.words ~off:0

let compatible c d =
  c.dim = d.dim && c.prm = d.prm && c.cols = d.cols && One_sparse.compatible c.cell d.cell

let check_compatible t s =
  if not (compatible t.config s.config) then invalid_arg "Sparse_recovery: incompatible sketches"

(* Merge is one triple-kernel pass over the whole grid: c0/c1 of every
   cell add as plain integers, c2 in the Mersenne field — bit-identical
   to per-cell One_sparse merges. *)
let add t s =
  check_compatible t s;
  Words.add_tri t.words s.words

let sub t s =
  check_compatible t s;
  Words.sub_tri t.words s.words

let clone_zero t = { t with words = Words.create (Words.length t.words) }
let reset t = Words.fill t.words 0

let space_in_words_of c =
  let cell_words = 4 in
  let hash_words = Array.fold_left (fun acc h -> acc + Kwise.space_in_words h) 0 c.hashes in
  (c.prm.rows * c.cols * cell_words) + hash_words

let space_in_words t = space_in_words_of t.config

(* Cells are framed as (zero-run skip, counters) pairs: sketches of sparse
   shards are overwhelmingly zero cells, and a zero run costs one byte. The
   reader knows the total cell count, so no end marker is needed: a
   trailing zero run ends exactly at [total], and if the last cell is
   non-zero the loop exits without a final skip.  The scan is one pass
   over the contiguous grid. *)
let write_at c w ~off sink =
  Wire.write_tag sink "srec";
  Wire.write_int sink c.dim;
  Wire.write_int sink c.prm.rows;
  Wire.write_int sink c.cols;
  let total = c.prm.rows * c.cols in
  let pos = ref 0 in
  while !pos < total do
    let start = !pos in
    while !pos < total && zero_cell w (off + (3 * !pos)) do
      incr pos
    done;
    Wire.write_int sink (!pos - start);
    if !pos < total then begin
      let o = off + (3 * !pos) in
      Wire.write_int sink (Words.unsafe_get w o);
      Wire.write_int sink (Words.unsafe_get w (o + 1));
      Wire.write_int sink (Words.unsafe_get w (o + 2));
      incr pos
    end
  done

let read_at c w ~off src =
  Wire.expect_tag src "srec";
  if Wire.read_int src <> c.dim then failwith "Sparse_recovery.read_into: dimension mismatch";
  if Wire.read_int src <> c.prm.rows || Wire.read_int src <> c.cols then
    failwith "Sparse_recovery.read_into: shape mismatch";
  let total = c.prm.rows * c.cols in
  let pos = ref 0 in
  while !pos < total do
    let skip = Wire.read_int src in
    if skip < 0 || !pos + skip > total then failwith "Sparse_recovery.read_into: bad zero run";
    if skip > 0 then Words.fill_range w ~pos:(off + (3 * !pos)) ~len:(3 * skip) 0;
    pos := !pos + skip;
    if !pos < total then begin
      let o = off + (3 * !pos) in
      Words.unsafe_set w o (Wire.read_int src);
      Words.unsafe_set w (o + 1) (Wire.read_int src);
      Words.unsafe_set w (o + 2) (Wire.read_int src);
      incr pos
    end
  done

let write t sink = write_at t.config t.words ~off:0 sink
let read_into t src = read_at t.config t.words ~off:0 src

module Linear = struct
  type nonrec t = t

  let family = "sparse_recovery"
  let dim t = t.config.dim

  let shape t =
    let c = t.config in
    [| c.dim; c.prm.sparsity; c.prm.rows; c.prm.hash_degree; c.cols |]

  let clone_zero = clone_zero
  let add = add
  let sub = sub
  let update = update
  let reset = reset
  let space_in_words = space_in_words
  let write_body = write
  let read_body = read_into
end
