(* Flat off-heap word buffers: the storage substrate for every linear
   sketch family.

   A [Words.t] is a contiguous C-layout Bigarray of machine words living
   outside the OCaml heap: the GC never scans it, domains can blit it
   without write barriers, and a serialized checkpoint of it is an
   mmap-friendly flat image.  Sketch state is a small linear object of
   O(k n^(1+1/k) log n) words (Thm 1); keeping it in one of these makes
   clone = one zeroed allocation, merge = one tight loop, and ship =
   one pass over one buffer.

   The merge loops come in two flavours matching the two counter
   algebras in the library:

   - [add]/[sub]: plain machine-integer addition on every word
     (Count_sketch tables, AMS F2 counters, Packed_l0 / Sketch_table
     raw-accumulated fingerprints).
   - [add_tri]/[sub_tri]: One_sparse triples (c0, c1, c2) where the
     third word of every triple is a Mersenne-field element kept
     reduced in [0, 2^31-1) — the whole Sparse_recovery / L0_sampler /
     AGM tower is a flat array of such triples.

   All four are C stubs (util_words_stubs.c). *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

external c_add : t -> t -> int -> unit = "ds_words_add" [@@noalloc]
external c_sub : t -> t -> int -> unit = "ds_words_sub" [@@noalloc]
external c_add_tri : t -> int -> t -> int -> int -> unit = "ds_words_add_tri" [@@noalloc]
external c_sub_tri : t -> t -> int -> unit = "ds_words_sub_tri" [@@noalloc]
external c_blit : t -> int -> t -> int -> int -> unit = "ds_words_blit" [@@noalloc]

let kernel = "c"

(* ------------------------------------------------------------------ *)
(* Construction and element access                                     *)
(* ------------------------------------------------------------------ *)

let create len =
  if len < 0 then invalid_arg "Words.create: negative length";
  let w = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  Bigarray.Array1.fill w 0;
  w

let length (t : t) = Bigarray.Array1.dim t
let get (t : t) i : int = Bigarray.Array1.get t i
let set (t : t) i (v : int) = Bigarray.Array1.set t i v
let[@inline] unsafe_get (t : t) i : int = Bigarray.Array1.unsafe_get t i
let[@inline] unsafe_set (t : t) i (v : int) = Bigarray.Array1.unsafe_set t i v

let fill (t : t) v = Bigarray.Array1.fill t v

let fill_range (t : t) ~pos ~len v =
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg "Words.fill_range: range out of bounds";
  for i = pos to pos + len - 1 do
    unsafe_set t i v
  done

(* A view aliases the underlying storage: writes through the view are
   writes to the parent (how an AGM repetition slice merges into its
   sketch). *)
let view (t : t) ~pos ~len : t = Bigarray.Array1.sub t pos len

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if len < 0 || src_pos < 0 || dst_pos < 0 || src_pos + len > length src
     || dst_pos + len > length dst
  then invalid_arg "Words.blit: range out of bounds";
  c_blit src src_pos dst dst_pos len

let copy (t : t) =
  let w = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (length t) in
  Bigarray.Array1.blit t w;
  w

let of_array a =
  let w = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (Array.length a) in
  Array.iteri (fun i v -> unsafe_set w i v) a;
  w

let to_array (t : t) = Array.init (length t) (fun i -> unsafe_get t i)

(* ------------------------------------------------------------------ *)
(* Merge kernels                                                       *)
(* ------------------------------------------------------------------ *)

let check2 name t s =
  if length t <> length s then
    invalid_arg (Printf.sprintf "Words.%s: length mismatch (%d vs %d)" name (length t) (length s))

let check_tri name len =
  if len mod 3 <> 0 then invalid_arg ("Words." ^ name ^ ": length not a multiple of 3")

let add t s =
  check2 "add" t s;
  c_add t s (length t)

let sub t s =
  check2 "sub" t s;
  c_sub t s (length t)

let add_tri t s =
  check2 "add_tri" t s;
  check_tri "add_tri" (length t);
  c_add_tri t 0 s 0 (length t)

let sub_tri t s =
  check2 "sub_tri" t s;
  check_tri "sub_tri" (length t);
  c_sub_tri t s (length t)

let add_tri_range ~src ~src_pos ~dst ~dst_pos ~len =
  if len < 0 || src_pos < 0 || dst_pos < 0 || src_pos + len > length src
     || dst_pos + len > length dst
  then invalid_arg "Words.add_tri_range: range out of bounds";
  check_tri "add_tri_range" len;
  c_add_tri dst dst_pos src src_pos len

(* ------------------------------------------------------------------ *)
(* Wire helpers                                                        *)
(* ------------------------------------------------------------------ *)

(* Byte-compatible with [Wire.write_array] / [Wire.read_array] over the
   same values: the LSK1 format predates the off-heap representation and
   is pinned by the golden fixtures, so serialization stays a varint
   stream — but now produced by one pass over one contiguous buffer. *)
let write_wire_array sink (t : t) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg "Words.write_wire_array: range out of bounds";
  Wire.write_int sink len;
  for i = pos to pos + len - 1 do
    Wire.write_int sink (unsafe_get t i)
  done

let read_wire_array ~what src (t : t) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg "Words.read_wire_array: range out of bounds";
  let n = Wire.read_int src in
  if n <> len then failwith (what ^ ": length mismatch");
  for i = pos to pos + len - 1 do
    unsafe_set t i (Wire.read_int src)
  done
