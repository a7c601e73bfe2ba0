type sink = Buffer.t
type source = { data : string; mutable pos : int; limit : int }

let sink () = Buffer.create 256
let contents = Buffer.contents

let source ?(pos = 0) ?len data =
  let len = match len with Some l -> l | None -> String.length data - pos in
  if pos < 0 || len < 0 || pos + len > String.length data then
    invalid_arg "Wire.source: range out of bounds";
  { data; pos; limit = pos + len }

let remaining s = s.limit - s.pos

(* Zig-zag then base-128 varint; total over the full 63-bit int range (the
   recursion uses logical shifts, so a negative zig-zag word terminates
   after at most 9 bytes). *)
let write_int buf v =
  let z = (v lsl 1) lxor (v asr 62) in
  let rec go z =
    if z land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr (z land 0x7f))
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (z land 0x7f)));
      go (z lsr 7)
    end
  in
  go z

let read_byte s =
  if s.pos >= s.limit then failwith "Wire: truncated input";
  let b = Char.code s.data.[s.pos] in
  s.pos <- s.pos + 1;
  b

let read_int s =
  let rec go shift acc =
    if shift > 62 then failwith "Wire: varint too long";
    let b = read_byte s in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  let z = go 0 0 in
  (z lsr 1) lxor (-(z land 1))

let write_array buf a =
  write_int buf (Array.length a);
  Array.iter (write_int buf) a

let read_array s =
  (* Every varint element occupies at least one byte, so a well-formed
     array never declares more elements than there are bytes left — the
     bound caps the allocation at the frame size before any element is
     read. *)
  let len = read_int s in
  if len < 0 || len > remaining s then failwith "Wire: implausible array length";
  Array.init len (fun _ -> read_int s)

let write_fixed64 buf v =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  done

let read_fixed64 s =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (read_byte s)) (8 * i))
  done;
  !v

(* FNV-1a over a byte range: the checksum of Envelope (and a content hash
   for callers that compare serialized states). 64-bit arithmetic via Int64
   so writer and reader agree on every platform word size. *)
let fnv1a64 ?(pos = 0) ?len data =
  let len = match len with Some l -> l | None -> String.length data - pos in
  if pos < 0 || len < 0 || pos + len > String.length data then
    invalid_arg "Wire.fnv1a64: range out of bounds";
  let h = ref 0xcbf29ce484222325L in
  for i = pos to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code data.[i]))) 0x100000001b3L
  done;
  !h

(* Length-prefixed framing for the serving layer's socket protocol: a
   4-byte little-endian unsigned length, then that many payload bytes.
   The header is fixed-width (not a varint) so a reader can always pull
   exactly 4 bytes and decide — before allocating anything — whether the
   advertised length is sane. *)

let frame_header_length = 4

type frame_error =
  | Frame_negative of int
  | Frame_too_large of { length : int; max : int }

let frame_error_to_string = function
  | Frame_negative n -> Printf.sprintf "negative frame length %d" n
  | Frame_too_large { length; max } ->
      Printf.sprintf "frame length %d exceeds limit %d" length max

let write_frame_header buf len =
  if len < 0 then invalid_arg "Wire.write_frame_header: negative length";
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((len lsr (8 * i)) land 0xff))
  done

let write_frame buf payload =
  write_frame_header buf (String.length payload);
  Buffer.add_string buf payload

(* Decode the 4 header bytes at [pos]. The wire value is an unsigned
   32-bit field, but a hostile or desynchronised peer can set the sign
   bit; decoding it as a signed i32 keeps "negative" distinguishable
   from merely huge, and both are rejected with a typed error before a
   single payload byte is allocated. *)
let decode_frame_length ~max data ~pos =
  if max < 0 then invalid_arg "Wire.decode_frame_length: negative max";
  if pos < 0 || pos + frame_header_length > String.length data then
    invalid_arg "Wire.decode_frame_length: header out of bounds";
  let b i = Char.code data.[pos + i] in
  let raw = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  (* Sign-extend bit 31 on a 63-bit int. *)
  let signed = (raw lxor 0x80000000) - 0x80000000 in
  if signed < 0 then Error (Frame_negative signed)
  else if signed > max then Error (Frame_too_large { length = signed; max })
  else Ok signed

let write_tag buf tag =
  write_int buf (String.length tag);
  Buffer.add_string buf tag

let read_tag s =
  let len = read_int s in
  if len < 0 || len > remaining s then failwith "Wire: truncated tag";
  let got = String.sub s.data s.pos len in
  s.pos <- s.pos + len;
  got

let expect_tag s tag =
  let len = read_int s in
  if len <> String.length tag || remaining s < len then
    failwith (Printf.sprintf "Wire: expected tag %S" tag);
  let got = String.sub s.data s.pos len in
  s.pos <- s.pos + len;
  if got <> tag then failwith (Printf.sprintf "Wire: expected tag %S, found %S" tag got)
