(** Compact binary encoding for sketch state.

    Sketch {e structure} (hash functions, dimensions) is derived from a
    shared seed, so only the {e counters} ever need to cross the network —
    exactly the paper's distributed model, where servers agree on the
    sketching matrix and ship [S x^i]. Writers append to a buffer; readers
    consume a string. Integers use zig-zag varint encoding (signed counters
    are mostly small), and every composite value carries a small tag so that
    misaligned reads fail loudly instead of decoding garbage. *)

type sink
type source

val sink : unit -> sink
val contents : sink -> string
val source : ?pos:int -> ?len:int -> string -> source
(** Read [data.[pos .. pos+len-1]] (defaults: the whole string) in place,
    without copying; reads past the range fail as truncated input.
    @raise Invalid_argument if the range is out of bounds. *)

val remaining : source -> int
(** Bytes not yet consumed. *)

val write_int : sink -> int -> unit
val read_int : source -> int
(** @raise Failure on truncated input. *)

val write_array : sink -> int array -> unit
val read_array : source -> int array

val write_fixed64 : sink -> int64 -> unit
(** Eight little-endian bytes, platform independent. Used for checksums and
    float bit patterns, which must not be varint-compressed. *)

val read_fixed64 : source -> int64
(** @raise Failure on truncated input. *)

val fnv1a64 : ?pos:int -> ?len:int -> string -> int64
(** FNV-1a 64-bit hash of [data.[pos .. pos+len-1]] (defaults: the whole
    string). {!Envelope} seals every versioned message with it; callers
    also use it as a content hash of serialized state. *)

(** {1 Length-prefixed framing}

    The serving layer's socket protocol: a fixed 4-byte little-endian
    unsigned length, then that many payload bytes. Fixed-width (unlike the
    varints above) so a reader can pull exactly {!frame_header_length}
    bytes and validate the advertised length {e before} allocating any
    payload buffer — an 8-byte hostile header must never cause an OOM. *)

val frame_header_length : int
(** Always 4. *)

(** Why a frame header was rejected. Both cases mean the stream is
    desynchronised or hostile; the connection must be dropped (there is no
    way to resynchronise a length-prefixed stream). *)
type frame_error =
  | Frame_negative of int  (** sign bit set when read as an i32 *)
  | Frame_too_large of { length : int; max : int }

val frame_error_to_string : frame_error -> string

val write_frame_header : Buffer.t -> int -> unit
(** Append the 4-byte header for a payload of the given length.
    @raise Invalid_argument on a negative length. *)

val write_frame : Buffer.t -> string -> unit
(** Header + payload in one call. *)

val decode_frame_length : max:int -> string -> pos:int -> (int, frame_error) result
(** Decode the 4 header bytes at [pos] and validate them against [max].
    Never allocates payload space.
    @raise Invalid_argument if fewer than 4 bytes are available at [pos]
    (the caller buffers until it has a whole header). *)

val write_tag : sink -> string -> unit
val expect_tag : source -> string -> unit
(** @raise Failure if the next tag differs — the standard guard at the head
    of every sketch's [write]/[read_into] pair. *)

val read_tag : source -> string
(** Read whatever tag comes next, for readers that report {e which} tag they
    found instead of merely failing (the typed-error decode path).
    @raise Failure on truncated input. *)
