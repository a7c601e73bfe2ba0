open Ds_util

(* The three counters of a cell live in a Words buffer: a standalone
   sketch owns a 3-word buffer of its own, while a container keeps one
   [config] (the fingerprint ladder) per cell grid and addresses each
   cell's triple by its word offset in the container's buffer. *)
type config = {
  dim : int;
  base : int; (* fingerprint base r, shared by compatible sketches *)
  pows : Field.Pow.table; (* cached ladder for r^(i+1) *)
}

type t = { config : config; words : Words.t }

let state_words = 3

let make_config rng ~dim =
  if dim <= 0 then invalid_arg "One_sparse.create: dim must be positive";
  let base = 2 + Prng.int rng (Field.p - 2) in
  { dim; base; pows = Field.Pow.table ~base ~max_exp:dim }

let create rng ~dim = { config = make_config rng ~dim; words = Words.create state_words }

let[@inline] fingerprint_pow c index = Field.Pow.get c.pows (index + 1)

let[@inline] update_at w ~off:o ~index ~delta ~term =
  Words.unsafe_set w o (Words.unsafe_get w o + delta);
  Words.unsafe_set w (o + 1) (Words.unsafe_get w (o + 1) + (delta * index));
  Words.unsafe_set w (o + 2) (Field.add (Words.unsafe_get w (o + 2)) term)

let update t ~index ~delta =
  if index < 0 || index >= t.config.dim then invalid_arg "One_sparse.update: index out of range";
  update_at t.words ~off:0 ~index ~delta
    ~term:(Field.scale_int delta (fingerprint_pow t.config index))

let update_batch t updates =
  Array.iter (fun (index, delta) -> update t ~index ~delta) updates

let decode_at c w ~off:o =
  let c0 = Words.unsafe_get w o
  and c1 = Words.unsafe_get w (o + 1)
  and c2 = Words.unsafe_get w (o + 2) in
  if c0 = 0 && c1 = 0 && c2 = 0 then Decoded.Empty
  else if c0 = 0 || c1 mod c0 <> 0 then Declined
  else
    let i = c1 / c0 in
    if i < 0 || i >= c.dim || Field.scale_int c0 (fingerprint_pow c i) <> c2 then Declined
    else Found (i, c0)

let decode t = decode_at t.config t.words ~off:0

let decode_raw ~dim ~base c0 c1 c2 =
  if c0 = 0 && c1 = 0 && Field.of_int c2 = 0 then Decoded.Empty
  else if c0 = 0 || c1 mod c0 <> 0 then Declined
  else
    let i = c1 / c0 in
    if i < 0 || i >= dim || Field.of_int (c0 * Field.pow base (i + 1)) <> Field.of_int c2 then
      Declined
    else Found (i, c0)

let[@inline] c0 t = Words.unsafe_get t.words 0
let[@inline] c1 t = Words.unsafe_get t.words 1
let[@inline] c2 t = Words.unsafe_get t.words 2
let compatible c d = c.dim = d.dim && c.base = d.base

let check_compatible t s =
  if not (compatible t.config s.config) then invalid_arg "One_sparse: incompatible sketches"

let add t s =
  check_compatible t s;
  (* Merging shard replicas walks millions of cells of which only the
     touched few are non-zero; skipping the zero sources spares the
     destination's dirty cache traffic.  Adding zero is the identity on
     every counter (including [c2]: [Field.add x 0 = x]), so the
     fast path is bit-invisible. *)
  if not (c0 s = 0 && c1 s = 0 && c2 s = 0) then begin
    Words.unsafe_set t.words 0 (c0 t + c0 s);
    Words.unsafe_set t.words 1 (c1 t + c1 s);
    Words.unsafe_set t.words 2 (Field.add (c2 t) (c2 s))
  end

let sub t s =
  check_compatible t s;
  Words.unsafe_set t.words 0 (c0 t - c0 s);
  Words.unsafe_set t.words 1 (c1 t - c1 s);
  Words.unsafe_set t.words 2 (Field.sub (c2 t) (c2 s))

let write t sink =
  Wire.write_tag sink "1sp";
  Wire.write_int sink t.config.dim;
  Wire.write_int sink (c0 t);
  Wire.write_int sink (c1 t);
  Wire.write_int sink (c2 t)

let read_into t src =
  Wire.expect_tag src "1sp";
  let dim = Wire.read_int src in
  if dim <> t.config.dim then failwith "One_sparse.read_into: dimension mismatch";
  for i = 0 to state_words - 1 do
    Words.unsafe_set t.words i (Wire.read_int src)
  done

module Linear = struct
  type nonrec t = t

  let family = "one_sparse"
  let dim t = t.config.dim
  let shape t = [| t.config.dim |]
  let clone_zero t = { t with words = Words.create state_words }
  let add = add
  let sub = sub
  let update = update
  let reset t = Words.fill t.words 0
  let space_in_words _ = 4
  let write_body = write
  let read_body = read_into
end
