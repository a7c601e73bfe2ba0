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
  {
    key_dim;
    cap = capacity;
    rows;
    payload_len;
    hashes =
      Array.init rows (fun r ->
          Kwise.create (Prng.split_named rng (Printf.sprintf "row%d" r)) ~k:hash_degree);
    base = 2 + Prng.int rng (Field.p - 2);
    words = Words.create (rows * capacity * (3 + payload_len));
  }

let update t ~key ~weight ~write =
  if key < 0 || key >= t.key_dim then invalid_arg "Sketch_table.update: key out of range";
  let fp = weight * Field.pow t.base (key + 1) in
  let w = t.words in
  for r = 0 to t.rows - 1 do
    let c = Kwise.to_range t.hashes.(r) key ~bound:t.cap in
    let okc = kc_off t r c and oks = ks_off t r c and okf = kf_off t r c in
    Words.unsafe_set w okc (Words.unsafe_get w okc + weight);
    Words.unsafe_set w oks (Words.unsafe_get w oks + (weight * key));
    Words.unsafe_set w okf (Words.unsafe_get w okf + fp);
    write w (payload_off t r c)
  done

type cell_state = Zero | One of int * int | Many

(* [scratch] shares [t]'s layout (it is a peeling copy of [t.words]). *)
let decode_cell t (scratch : Words.t) r c =
  let c0 = Words.unsafe_get scratch (kc_off t r c)
  and c1 = Words.unsafe_get scratch (ks_off t r c)
  and c2 = Words.unsafe_get scratch (kf_off t r c) in
  if c0 = 0 && c1 = 0 && Field.of_int c2 = 0 then begin
    (* Weight cancelled to zero: genuinely empty only if the payload is too. *)
    let clean = ref true in
    let base = payload_off t r c in
    for i = 0 to t.payload_len - 1 do
      if Words.unsafe_get scratch (base + i) <> 0 then clean := false
    done;
    if !clean then Zero else Many
  end
  else if c0 = 0 then Many
  else if c1 mod c0 <> 0 then Many
  else begin
    let k = c1 / c0 in
    if k < 0 || k >= t.key_dim then Many
    else if Field.of_int (c0 * Field.pow t.base (k + 1)) = Field.of_int c2 then One (k, c0)
    else Many
  end

let decode t =
  let scratch = Words.copy t.words in
  let results = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    for r = 0 to t.rows - 1 do
      for c = 0 to t.cap - 1 do
        match decode_cell t scratch r c with
        | One (k, w) when Kwise.to_range t.hashes.(r) k ~bound:t.cap = c ->
            let pl = Words.create t.payload_len in
            Words.blit ~src:scratch ~src_pos:(payload_off t r c) ~dst:pl ~dst_pos:0
              ~len:t.payload_len;
            results := (k, w, pl) :: !results;
            let fp = w * Field.pow t.base (k + 1) in
            for r' = 0 to t.rows - 1 do
              let c' = Kwise.to_range t.hashes.(r') k ~bound:t.cap in
              let okc = kc_off t r' c' and oks = ks_off t r' c' and okf = kf_off t r' c' in
              Words.unsafe_set scratch okc (Words.unsafe_get scratch okc - w);
              Words.unsafe_set scratch oks (Words.unsafe_get scratch oks - (w * k));
              Words.unsafe_set scratch okf (Words.unsafe_get scratch okf - fp);
              let b' = payload_off t r' c' in
              for i = 0 to t.payload_len - 1 do
                Words.unsafe_set scratch (b' + i)
                  (Words.unsafe_get scratch (b' + i) - Words.unsafe_get pl i)
              done
            done;
            progress := true
        | Zero | One _ | Many -> ()
      done
    done
  done;
  let cleared = ref true in
  for r = 0 to t.rows - 1 do
    for c = 0 to t.cap - 1 do
      match decode_cell t scratch r c with
      | Zero -> ()
      | One _ | Many -> cleared := false
    done
  done;
  if !cleared then Some !results else None

let check_compatible t s =
  if
    t.key_dim <> s.key_dim || t.cap <> s.cap || t.rows <> s.rows
    || t.payload_len <> s.payload_len || t.base <> s.base
  then invalid_arg "Sketch_table: incompatible tables"

let add t s =
  check_compatible t s;
  Words.add t.words s.words

let sub t s =
  check_compatible t s;
  Words.sub t.words s.words

let space_in_words t =
  (t.rows * t.cap * (3 + t.payload_len))
  + Array.fold_left (fun a h -> a + Kwise.space_in_words h) 0 t.hashes

let clone_zero t = { t with words = Words.create (Words.length t.words) }
let copy t = { t with words = Words.copy t.words }
let reset t = Words.fill t.words 0

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
  let clone_zero = clone_zero
  let add = add
  let sub = sub

  (* A key's weight is a linear accumulator; updating it with an empty
     payload contribution is the index/delta face of [update]. *)
  let update t ~index ~delta = update t ~key:index ~weight:delta ~write:(fun _ _ -> ())
  let reset = reset
  let space_in_words = space_in_words
  let write_body = write
  let read_body = read_into
end
