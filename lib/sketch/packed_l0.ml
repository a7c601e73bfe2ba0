open Ds_util

type params = { reps : int; sparsity : int; hash_degree : int }

type config = {
  dim : int;
  prm : params;
  levels : int;
  buckets : int;
  base : int; (* fingerprint base, raw-integer accumulated *)
  level_hashes : Kwise.t array; (* one per rep *)
  bucket_hashes : Kwise.t array array; (* reps x 2 rows *)
  tie_break : Kwise.t;
}

let default_params = { reps = 2; sparsity = 3; hash_degree = 6 }
let rows = 2

let make_config rng ~dim ~params:prm =
  if dim <= 0 then invalid_arg "Packed_l0.make_config: dim must be positive";
  let levels = F0.levels_for dim in
  (* Bound in order: [split_named] reads [rng] and [Prng.int] advances it. *)
  let tie_break = Kwise.create (Prng.split_named rng "tiebreak") ~k:prm.hash_degree in
  let bucket_hashes =
    Array.init prm.reps (fun r ->
        Array.init rows (fun q ->
            Kwise.create (Prng.split_named rng (Printf.sprintf "bkt%d.%d" r q)) ~k:prm.hash_degree))
  in
  let level_hashes =
    Array.init prm.reps (fun r ->
        Kwise.create (Prng.split_named rng (Printf.sprintf "lvl%d" r)) ~k:prm.hash_degree)
  in
  let base = 2 + Prng.int rng (Field.p - 2) in
  let buckets = max 2 (2 * prm.sparsity) in
  { dim; prm; levels; buckets; base; level_hashes; bucket_hashes; tie_break }

let triple_words = 3
let[@inline] level_words c = rows * c.buckets * triple_words
let[@inline] rep_words c = c.levels * level_words c
let state_len c = c.prm.reps * rep_words c

let[@inline] cell_off c ~rep ~level ~row ~bucket =
  (rep * rep_words c) + (level * level_words c) + (((row * c.buckets) + bucket) * triple_words)

(* The per-index half of an update: everything that depends on [index]
   and [delta] but not on the state window. *)
type prepared = {
  delta : int;
  index_term : int; (* delta * index *)
  fp : int; (* delta * base^(index+1), a raw integer *)
  top : int array; (* per rep: the highest level [index] reaches *)
  cols : int array; (* rep-major, [rows] per rep: the bucket columns *)
}

let prepare c ~index ~delta =
  if index < 0 || index >= c.dim then invalid_arg "Packed_l0.prepare: index out of range";
  let x = Kwise.fold_key index in
  let x2 = Field.mul x x in
  let x4 = Field.mul x2 x2 in
  let top = Array.make c.prm.reps 0 and cols = Array.make (c.prm.reps * rows) 0 in
  for rep = 0 to c.prm.reps - 1 do
    top.(rep) <- min (Kwise.level_pows c.level_hashes.(rep) ~x ~x2 ~x4) (c.levels - 1);
    for row = 0 to rows - 1 do
      cols.((rep * rows) + row) <-
        Kwise.to_range_pows c.bucket_hashes.(rep).(row) ~x ~x2 ~x4 ~bound:c.buckets
    done
  done;
  { delta; index_term = delta * index; fp = delta * Field.pow c.base (index + 1); top; cols }

let update_prepared c p (state : Words.t) ~off =
  for rep = 0 to c.prm.reps - 1 do
    for level = 0 to Array.unsafe_get p.top rep do
      for row = 0 to rows - 1 do
        let bucket = Array.unsafe_get p.cols ((rep * rows) + row) in
        let o = off + cell_off c ~rep ~level ~row ~bucket in
        Words.unsafe_set state o (Words.unsafe_get state o + p.delta);
        Words.unsafe_set state (o + 1) (Words.unsafe_get state (o + 1) + p.index_term);
        Words.unsafe_set state (o + 2) (Words.unsafe_get state (o + 2) + p.fp)
      done
    done
  done

let update c state ~off ~index ~delta = update_prepared c (prepare c ~index ~delta) state ~off

(* Decode one (rep, level) grid by peeling it in [scratch], which
   [decode] allocates once and this refills from the state.  A candidate's
   index is folded once, and its two bucket columns serve both the check
   that it sits in its own bucket and the peel.  [Declined] unless the
   grid clears. *)
let decode_level c (state : Words.t) ~off ~rep ~level (scratch : Words.t) =
  let len = level_words c in
  Words.blit ~src:state ~src_pos:(off + cell_off c ~rep ~level ~row:0 ~bucket:0) ~dst:scratch
    ~dst_pos:0 ~len;
  let cell row bucket = ((row * c.buckets) + bucket) * triple_words in
  let decode_cell o =
    One_sparse.decode_raw ~dim:c.dim ~base:c.base (Words.unsafe_get scratch o)
      (Words.unsafe_get scratch (o + 1))
      (Words.unsafe_get scratch (o + 2))
  in
  let peel o ~i ~w ~fp =
    Words.unsafe_set scratch o (Words.unsafe_get scratch o - w);
    Words.unsafe_set scratch (o + 1) (Words.unsafe_get scratch (o + 1) - (w * i));
    Words.unsafe_set scratch (o + 2) (Words.unsafe_get scratch (o + 2) - fp)
  in
  let hashes = c.bucket_hashes.(rep) in
  let acc = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    for row = 0 to rows - 1 do
      for bucket = 0 to c.buckets - 1 do
        match decode_cell (cell row bucket) with
        | Found (i, w) ->
            let x = Kwise.fold_key i in
            let x2 = Field.mul x x in
            let x4 = Field.mul x2 x2 in
            let b0 = Kwise.to_range_pows hashes.(0) ~x ~x2 ~x4 ~bound:c.buckets
            and b1 = Kwise.to_range_pows hashes.(1) ~x ~x2 ~x4 ~bound:c.buckets in
            if (if row = 0 then b0 else b1) = bucket then begin
              acc := (i, w) :: !acc;
              let fp = w * Field.pow c.base (i + 1) in
              peel (cell 0 b0) ~i ~w ~fp;
              peel (cell 1 b1) ~i ~w ~fp;
              progress := true
            end
        | Empty | Declined -> ()
      done
    done
  done;
  let cleared = ref true in
  for o = 0 to len - 1 do
    if o mod triple_words = 2 then begin
      if Field.of_int (Words.unsafe_get scratch o) <> 0 then cleared := false
    end
    else if Words.unsafe_get scratch o <> 0 then cleared := false
  done;
  if not !cleared then Decoded.Declined else match !acc with [] -> Empty | found -> Found found

(* Level 0 holds the whole vector, so a rep whose levels all decode
   [Empty] certifies zero; a declining rep passes to the next. *)
let decode c state ~off =
  let scratch = Words.create (level_words c) in
  let rec per_rep rep =
    if rep >= c.prm.reps then Decoded.Declined
    else
      match
        Decoded.sample_levels ~tie_break:c.tie_break ~levels:c.levels (fun level ->
            decode_level c state ~off ~rep ~level scratch)
      with
      | Declined -> per_rep (rep + 1)
      | (Empty | Found _) as r -> r
  in
  per_rep 0

let config_space_in_words c =
  Kwise.space_in_words c.tie_break
  + Array.fold_left (fun a h -> a + Kwise.space_in_words h) 0 c.level_hashes
  + Array.fold_left
      (fun a row -> a + Array.fold_left (fun b h -> b + Kwise.space_in_words h) 0 row)
      0 c.bucket_hashes

(* The codec bundled with one state buffer of its own: the packed sampler as
   a first-class sketch rather than a payload format. Sketch_table cells
   keep using the external-state API; this form is what the linear-sketch
   interface (and the cluster simulator) registers. *)
module Owned = struct
  type t = { config : config; state : Words.t }

  let create rng ~dim ~params =
    let config = make_config rng ~dim ~params in
    { config; state = Words.create (state_len config) }

  let update t ~index ~delta = update t.config t.state ~off:0 ~index ~delta
  let clone_zero t = { t with state = Words.create (Words.length t.state) }
  let reset t = Words.fill t.state 0

  let check_compatible t s =
    if
      t.config.dim <> s.config.dim || t.config.prm <> s.config.prm
      || t.config.base <> s.config.base
    then invalid_arg "Packed_l0.Owned: incompatible sketches"

  (* Everything in the state — fingerprints included — is a raw integer
     accumulator, so merge is the plain-add kernel. *)
  let add t s =
    check_compatible t s;
    Words.add t.state s.state

  let sub t s =
    check_compatible t s;
    Words.sub t.state s.state

  let space_in_words t = Words.length t.state + config_space_in_words t.config

  let write t sink =
    Wire.write_tag sink "pl0";
    Wire.write_int sink t.config.dim;
    Words.write_wire_array sink t.state ~pos:0 ~len:(Words.length t.state)

  let read_into t src =
    Wire.expect_tag src "pl0";
    if Wire.read_int src <> t.config.dim then failwith "Packed_l0.read_into: dimension mismatch";
    Words.read_wire_array ~what:"Packed_l0.read_into" src t.state ~pos:0
      ~len:(Words.length t.state)
end

module Linear = struct
  type t = Owned.t

  let family = "packed_l0"
  let dim (t : t) = t.Owned.config.dim

  let shape (t : t) =
    let c = t.Owned.config in
    [| c.dim; c.prm.reps; c.prm.sparsity; c.prm.hash_degree; c.levels; c.buckets |]

  let clone_zero = Owned.clone_zero
  let add = Owned.add
  let sub = Owned.sub
  let update = Owned.update
  let reset = Owned.reset
  let space_in_words = Owned.space_in_words
  let write_body = Owned.write
  let read_body = Owned.read_into
end
