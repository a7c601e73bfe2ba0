(** Flat off-heap word buffers — the storage substrate for linear-sketch
    state.

    A {!t} is a contiguous C-layout Bigarray of machine words (one
    64-bit slot per OCaml [int]) living outside the OCaml heap: the GC
    never scans or moves it, replicas are produced by one zeroed
    allocation or one blit, and merging two sketches is one tight loop
    over two buffers (a C stub).

    Containers address nested sketches by word offset: a whole tower
    (AGM -> L0 samplers -> sparse-recovery cells -> one-sparse triples)
    is physically a single allocation that can be shipped, zeroed or
    merged with one call, and each nested sketch is a range of it. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val kernel : string
(** ["c"]: the foreign stubs drive {!add}/{!sub}/{!add_tri}/{!sub_tri}.
    Bench files record it in their stamp. *)

val create : int -> t
(** Zero-filled buffer of the given word count. *)

val length : t -> int
val get : t -> int -> int
val set : t -> int -> int -> unit

val unsafe_get : t -> int -> int
(** No bounds check — hot-path cell access for sketch kernels. *)

val unsafe_set : t -> int -> int -> unit

val fill : t -> int -> unit
val fill_range : t -> pos:int -> len:int -> int -> unit

val view : t -> pos:int -> len:int -> t
(** [view t ~pos ~len] aliases [t]'s storage: writes through the view are
    visible in [t] and vice versa.  O(1), no copy. *)

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** Copy [len] words (a C [memmove]: the ranges may overlap, nothing is
    allocated).  @raise Invalid_argument if either range is out of
    bounds. *)

val copy : t -> t
val of_array : int array -> t
val to_array : t -> int array

val add : t -> t -> unit
(** [add t s] sets [t.(i) <- t.(i) + s.(i)] for every word (plain machine
    addition).  Lengths must match.  Aliasing ([add t t]) is well-defined
    and doubles every word. *)

val sub : t -> t -> unit
(** Elementwise [t.(i) <- t.(i) - s.(i)]. *)

val add_tri : t -> t -> unit
(** One_sparse-triple merge: for each aligned triple [(c0, c1, c2)],
    [c0] and [c1] add as plain integers while [c2] adds in the Mersenne
    field [F_{2^31-1}] (both sides reduced, result reduced) — exactly the
    per-cell [One_sparse.add] the buffer layout replaces.  Length must be
    a multiple of 3. *)

val sub_tri : t -> t -> unit
(** Triple-wise subtraction, [c2] in the Mersenne field. *)

val add_tri_range : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** {!add_tri} over [len] words: [dst.[dst_pos ..]] gains
    [src.[src_pos ..]].  How a container sums nested sketches at given
    offsets into a scratch buffer.  [len] must be a multiple of 3.
    @raise Invalid_argument if either range is out of bounds. *)

val write_wire_array : Wire.sink -> t -> pos:int -> len:int -> unit
(** Length-prefixed zig-zag varints, byte-compatible with
    [Wire.write_array] over the same values (the pinned LSK1 body
    encoding), produced in one pass over the buffer. *)

val read_wire_array : what:string -> Wire.source -> t -> pos:int -> len:int -> unit
(** Inverse of {!write_wire_array} into an existing range.
    @raise Failure ("[what]: length mismatch") when the stored length
    differs from [len]. *)
