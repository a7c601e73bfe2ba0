open Ds_util

type params = { sparsity : int; rows : int; hash_degree : int }

(* A sampler's counters are every level's cell grid back to back (level
   [j] at word offset [j * level_words]).  The [config] holds the level
   and tie-break hashes and one Sparse_recovery structure per level; a
   standalone sampler owns its buffer, and containers (Agm_sketch) keep
   one config per distinct structure and address each sampler by its
   word offset in their own buffer.  Merging is one triple-kernel pass. *)
type config = {
  dim : int;
  prm : params;
  levels : int;
  level_hash : Kwise.t;
  tie_break : Kwise.t;
  grids : Sparse_recovery.config array; (* one per level *)
  level_words : int;
}

type t = { config : config; words : Words.t }

let default_params = { sparsity = 2; rows = 3; hash_degree = 6 }
let state_words c = c.levels * c.level_words

let make_config rng ~dim ~params:prm =
  let levels = F0.levels_for dim in
  let sr_params =
    { Sparse_recovery.sparsity = prm.sparsity; rows = prm.rows; hash_degree = prm.hash_degree }
  in
  let grids =
    Array.init levels (fun j ->
        Sparse_recovery.make_config
          (Prng.split_named rng (Printf.sprintf "lvl%d" j))
          ~dim ~params:sr_params)
  in
  {
    dim;
    prm;
    levels;
    level_hash = Kwise.create (Prng.split_named rng "levels") ~k:prm.hash_degree;
    tie_break = Kwise.create (Prng.split_named rng "tiebreak") ~k:prm.hash_degree;
    grids;
    level_words = Sparse_recovery.grid_words grids.(0);
  }

let create rng ~dim ~params =
  let config = make_config rng ~dim ~params in
  { config; words = Words.create (state_words config) }

let[@inline] level_of_pows c ~x ~x2 ~x4 =
  min (Kwise.level_pows c.level_hash ~x ~x2 ~x4) (c.levels - 1)

let[@inline] update_prepared_pows c w ~off ~index ~x ~x2 ~x4 ~level ~delta =
  for j = 0 to level do
    Sparse_recovery.update_pows (Array.unsafe_get c.grids j) w
      ~off:(off + (j * c.level_words))
      ~index ~x ~x2 ~x4 ~delta
  done

(* The sampler at [plus] gets +delta and the one at [minus] gets -delta of
   the same coordinate; both have structure [c] (see
   Sparse_recovery.update_pows_pair). *)
let[@inline] update_prepared_pair_pows c w ~plus ~minus ~index ~x ~x2 ~x4 ~level ~delta =
  for j = 0 to level do
    let o = j * c.level_words in
    Sparse_recovery.update_pows_pair (Array.unsafe_get c.grids j) w ~plus:(plus + o)
      ~minus:(minus + o) ~index ~x ~x2 ~x4 ~delta
  done

let update_folded t ~index ~folded ~delta =
  let x2 = Field.mul folded folded in
  let x4 = Field.mul x2 x2 in
  let c = t.config in
  update_prepared_pows c t.words ~off:0 ~index ~x:folded ~x2 ~x4
    ~level:(level_of_pows c ~x:folded ~x2 ~x4) ~delta

let update t ~index ~delta =
  if index < 0 || index >= t.config.dim then invalid_arg "L0_sampler.update: index out of range";
  update_folded t ~index ~folded:(Kwise.fold_key index) ~delta

let update_batch t updates =
  Array.iter (fun (index, delta) -> update t ~index ~delta) updates

let pick_min_tiebreak c assoc =
  let best = ref None in
  List.iter
    (fun (i, w) ->
      let h = Kwise.eval c.tie_break i in
      match !best with
      | Some (h0, _, _) when h0 <= h -> ()
      | _ -> best := Some (h, i, w))
    assoc;
  match !best with None -> None | Some (_, i, w) -> Some (i, w)

(* Scan from the sparsest level down: levels are nested, so the first level
   (from the top) whose decoded support is non-empty holds a random small
   subsample of the full support. Reaching below level 0 means every level
   (including level 0 = the whole vector) decoded to the empty support, so
   the vector is zero whp. *)
let classify_at c w ~off =
  let rec go j =
    if j < 0 then `Empty
    else
      match Sparse_recovery.decode_at c.grids.(j) w ~off:(off + (j * c.level_words)) with
      | Some [] -> go (j - 1)
      | Some assoc -> (
          match pick_min_tiebreak c assoc with
          | Some (i, w) -> `Sample (i, w)
          | None -> `Fail)
      | None -> (* support here already > sparsity: a denser level won't help *) `Fail
  in
  go (c.levels - 1)

let classify t = classify_at t.config t.words ~off:0

let sample t =
  match classify t with `Sample (i, w) -> Some (i, w) | `Empty | `Fail -> None

let compatible c d =
  c.dim = d.dim && c.prm = d.prm && Array.for_all2 Sparse_recovery.compatible c.grids d.grids

let check_compatible t s =
  if not (compatible t.config s.config) then invalid_arg "L0_sampler: incompatible sketches"

(* One buffer-level triple merge covers every level's cell grid. *)
let add t s =
  check_compatible t s;
  Words.add_tri t.words s.words

let sub t s =
  check_compatible t s;
  Words.sub_tri t.words s.words

let copy t = { t with words = Words.copy t.words }
let clone_zero t = { t with words = Words.create (Words.length t.words) }
let reset t = Words.fill t.words 0

let space_in_words_of c =
  Kwise.space_in_words c.level_hash
  + Kwise.space_in_words c.tie_break
  + Array.fold_left (fun a g -> a + Sparse_recovery.space_in_words_of g) 0 c.grids

let space_in_words t = space_in_words_of t.config

let write_at c w ~off sink =
  Wire.write_tag sink "l0";
  Wire.write_int sink c.levels;
  for j = 0 to c.levels - 1 do
    Sparse_recovery.write_at c.grids.(j) w ~off:(off + (j * c.level_words)) sink
  done

let read_at c w ~off src =
  Wire.expect_tag src "l0";
  if Wire.read_int src <> c.levels then failwith "L0_sampler.read_into: level mismatch";
  for j = 0 to c.levels - 1 do
    Sparse_recovery.read_at c.grids.(j) w ~off:(off + (j * c.level_words)) src
  done

let write t sink = write_at t.config t.words ~off:0 sink
let read_into t src = read_at t.config t.words ~off:0 src

module Linear = struct
  type nonrec t = t

  let family = "l0_sampler"
  let dim t = t.config.dim

  let shape t =
    let c = t.config in
    [| c.dim; c.prm.sparsity; c.prm.rows; c.prm.hash_degree; c.levels |]

  let clone_zero = clone_zero
  let add = add
  let sub = sub
  let update = update
  let reset = reset
  let space_in_words = space_in_words
  let write_body = write
  let read_body = read_into
end
