open Ds_util

(* All counters live in one flat off-heap buffer, row-major with
   segmented rows: row [r] occupies [row_words = cap * (3 + payload_len)]
   words at [r * row_words], split as

     kc      at +0            (cap words : weight count)
     ks      at +cap          (cap words : weighted key sum)
     kf      at +2*cap        (cap words : raw-integer key fingerprint)
     payload at +3*cap        (cap * payload_len words)

   matching the serialization order (kc, ks, kf, payload per row), so the
   wire body is four window passes per row over one buffer.  Everything —
   fingerprints included — is a raw integer accumulator, so merge is the
   plain-add kernel over the whole buffer. *)
type t = {
  key_dim : int;
  cap : int;
  rows : int;
  payload_len : int;
  hashes : Kwise.t array;
  base : int; (* key fingerprint base *)
  words : Words.t;
}

let[@inline] row_words t = t.cap * (3 + t.payload_len)
let[@inline] kc_off t r c = (r * row_words t) + c
let[@inline] ks_off t r c = (r * row_words t) + t.cap + c
let[@inline] kf_off t r c = (r * row_words t) + (2 * t.cap) + c
let[@inline] payload_off t r c = (r * row_words t) + (3 * t.cap) + (c * t.payload_len)

let create rng ~key_dim ~capacity ~rows ~hash_degree ~payload_len =
  if capacity < 1 || rows < 1 || payload_len < 0 then
    invalid_arg "Sketch_table.create: bad dimensions";
  (* Bound in order: [Prng.int] advances [rng] and [split_named] reads it. *)
  let base = 2 + Prng.int rng (Field.p - 2) in
  let hashes =
    Array.init rows (fun r ->
        Kwise.create (Prng.split_named rng (Printf.sprintf "row%d" r)) ~k:hash_degree)
  in
  {
    key_dim;
    cap = capacity;
    rows;
    payload_len;
    hashes;
    base;
    words = Words.create (rows * capacity * (3 + payload_len));
  }

(* Row [r]'s cell for the key whose folded value has powers [x], [x2], [x4]. *)
let[@inline] col t r ~x ~x2 ~x4 =
  Kwise.to_range_pows (Array.unsafe_get t.hashes r) ~x ~x2 ~x4 ~bound:t.cap

let update t ~key ~weight ~write =
  if key < 0 || key >= t.key_dim then invalid_arg "Sketch_table.update: key out of range";
  let fp = weight * Field.pow t.base (key + 1) in
  let x = Kwise.fold_key key in
  let x2 = Field.mul x x in
  let x4 = Field.mul x2 x2 in
  let w = t.words in
  for r = 0 to t.rows - 1 do
    let c = col t r ~x ~x2 ~x4 in
    let okc = kc_off t r c and oks = ks_off t r c and okf = kf_off t r c in
    Words.unsafe_set w okc (Words.unsafe_get w okc + weight);
    Words.unsafe_set w oks (Words.unsafe_get w oks + (weight * key));
    Words.unsafe_set w okf (Words.unsafe_get w okf + fp);
    write w (payload_off t r c)
  done

(* The key decoder of cell [(r, c)] in [keys]. [Empty] means the key
   counters cancelled; the cell is empty only if its residual payload is
   zero too. *)
let key_cell t (keys : Words.t) r c =
  let o = (r * 3 * t.cap) + c in
  One_sparse.decode_raw ~dim:t.key_dim ~base:t.base (Words.unsafe_get keys o)
    (Words.unsafe_get keys (o + t.cap))
    (Words.unsafe_get keys (o + (2 * t.cap)))

(* [dst] := cell [(r, c)]'s payload in [t] minus the payloads in [peeled]. *)
let residual_into t peeled r c (dst : Words.t) =
  Words.blit ~src:t.words ~src_pos:(payload_off t r c) ~dst ~dst_pos:0 ~len:t.payload_len;
  List.iter (Words.sub dst) peeled.((r * t.cap) + c)

let is_zero (w : Words.t) =
  let rec go i = i >= Words.length w || (Words.unsafe_get w i = 0 && go (i + 1)) in
  go 0

(* Peeling works on a copy of the key counters only: [keys] holds, per row,
   the row's contiguous kc/ks/kf runs ([3 * cap] words at [r * 3 * cap]).
   [peeled.(r * cap + c)] lists the payloads of the keys peeled out of cell
   [(r, c)] so far, so the cell's residual payload is its words in [t]
   minus those: payloads are read in place, when a key is recovered and
   once more in the final all-clear check. *)
let decode t =
  let kw = 3 * t.cap in
  let keys = Words.create (t.rows * kw) in
  for r = 0 to t.rows - 1 do
    Words.blit ~src:t.words ~src_pos:(kc_off t r 0) ~dst:keys ~dst_pos:(r * kw) ~len:kw
  done;
  let peeled = Array.make (t.rows * t.cap) [] in
  let results = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    for r = 0 to t.rows - 1 do
      for c = 0 to t.cap - 1 do
        match key_cell t keys r c with
        | Found (k, w) ->
            let x = Kwise.fold_key k in
            let x2 = Field.mul x x in
            let x4 = Field.mul x2 x2 in
            if col t r ~x ~x2 ~x4 = c then begin
              let pl = Words.create t.payload_len in
              residual_into t peeled r c pl;
              results := (k, w, pl) :: !results;
              let fp = w * Field.pow t.base (k + 1) in
              for r' = 0 to t.rows - 1 do
                let c' = col t r' ~x ~x2 ~x4 in
                let o = (r' * kw) + c' in
                Words.unsafe_set keys o (Words.unsafe_get keys o - w);
                Words.unsafe_set keys (o + t.cap) (Words.unsafe_get keys (o + t.cap) - (w * k));
                Words.unsafe_set keys (o + (2 * t.cap))
                  (Words.unsafe_get keys (o + (2 * t.cap)) - fp);
                let cell = (r' * t.cap) + c' in
                peeled.(cell) <- pl :: peeled.(cell)
              done;
              progress := true
            end
        | Empty | Declined -> ()
      done
    done
  done;
  (* All clear iff every cell's key counters and residual payload are zero. *)
  let residual = Words.create t.payload_len in
  let cleared = ref true in
  for r = 0 to t.rows - 1 do
    for c = 0 to t.cap - 1 do
      if !cleared then
        match key_cell t keys r c with
        | Empty ->
            residual_into t peeled r c residual;
            if not (is_zero residual) then cleared := false
        | Found _ | Declined -> cleared := false
    done
  done;
  if not !cleared then Decoded.Declined
  else match !results with [] -> Empty | found -> Found found

let check_compatible t s =
  if
    t.key_dim <> s.key_dim || t.cap <> s.cap || t.rows <> s.rows
    || t.payload_len <> s.payload_len || t.base <> s.base
  then invalid_arg "Sketch_table: incompatible tables"

let add t s =
  check_compatible t s;
  Words.add t.words s.words

let space_in_words t =
  (t.rows * t.cap * (3 + t.payload_len))
  + Array.fold_left (fun a h -> a + Kwise.space_in_words h) 0 t.hashes

let write t sink =
  Wire.write_tag sink "stb";
  Wire.write_int sink t.key_dim;
  for r = 0 to t.rows - 1 do
    Words.write_wire_array sink t.words ~pos:(kc_off t r 0) ~len:t.cap;
    Words.write_wire_array sink t.words ~pos:(ks_off t r 0) ~len:t.cap;
    Words.write_wire_array sink t.words ~pos:(kf_off t r 0) ~len:t.cap;
    Words.write_wire_array sink t.words ~pos:(payload_off t r 0) ~len:(t.cap * t.payload_len)
  done

let read_into t src =
  Wire.expect_tag src "stb";
  if Wire.read_int src <> t.key_dim then failwith "Sketch_table.read_into: key_dim mismatch";
  let what = "Sketch_table.read_into" in
  for r = 0 to t.rows - 1 do
    Words.read_wire_array ~what src t.words ~pos:(kc_off t r 0) ~len:t.cap;
    Words.read_wire_array ~what src t.words ~pos:(ks_off t r 0) ~len:t.cap;
    Words.read_wire_array ~what src t.words ~pos:(kf_off t r 0) ~len:t.cap;
    Words.read_wire_array ~what src t.words ~pos:(payload_off t r 0) ~len:(t.cap * t.payload_len)
  done

module Linear = struct
  type nonrec t = t

  let family = "sketch_table"
  let dim t = t.key_dim
  let shape t = [| t.key_dim; t.cap; t.rows; t.payload_len |]
  let clone_zero t = { t with words = Words.create (Words.length t.words) }
  let add = add

  let sub t s =
    check_compatible t s;
    Words.sub t.words s.words

  (* A key's weight is a linear accumulator; updating it with an empty
     payload contribution is the index/delta face of [update]. *)
  let update t ~index ~delta = update t ~key:index ~weight:delta ~write:(fun _ _ -> ())
  let reset t = Words.fill t.words 0
  let space_in_words = space_in_words
  let write_body = write
  let read_body = read_into
end
