(** The first-class linear-sketch interface.

    Every piece of algorithm state in this library is a {e linear sketch}: a
    vector of counters that is a linear function of the update stream. That
    single property is what the paper's distributed setting (Section 1) and
    pass structure (Algorithms 1+2) rest on, and it buys three universal
    operations — shipping (serialize), summing (merge) and space accounting —
    that previously existed ad hoc on a handful of modules. This module makes
    the property load-bearing: any module implementing {!S} gets a versioned
    binary wire format and cluster-simulation shipping
    ({!Ds_sim.Cluster_sim.ship}) for free.

    {2 Wire format (version 1)}

    A serialized sketch is an {!Ds_util.Envelope} with magic [LSK1] whose
    fields are:

    {v
    tag  family            the implementation's family name
    array shape            structural fingerprint (dims, rows, ...)
    body                   counters only, implementation-defined
    v}

    Structure (hash functions, fingerprint bases) is derived from a shared
    seed and never shipped — exactly the paper's model, where servers agree
    on the sketching matrix and ship [S x^i]. Readers verify the checksum
    {e before} parsing, then magic, family and shape, so truncated,
    bit-flipped or mis-routed messages are rejected instead of decoding
    garbage (property-fuzzed in [test/test_linear.ml]). *)

module type S = sig
  type t

  val family : string
  (** Wire-format family name, unique per implementation (e.g.
      ["l0_sampler"]). *)

  val dim : t -> int
  (** Size of the index space [update] accepts. *)

  val shape : t -> int array
  (** Structural fingerprint: every parameter that must agree between writer
      and reader for the counters to be interchangeable (dimensions, rows,
      levels, ...). Written into the envelope and checked on read. Seeds are
      {e not} part of the shape — two sketches with equal shapes but
      different seeds are wire-compatible yet semantically incompatible, as
      everywhere else in the library. *)

  val clone_zero : t -> t
  (** A fresh sketch of the zero vector, compatible with [t] (shared
      immutable structure, zero counters). *)

  val add : t -> t -> unit
  (** [add dst src]: [dst := dst + src]. Compatible sketches only. *)

  val sub : t -> t -> unit
  (** [sub dst src]: [dst := dst - src]. *)

  val update : t -> index:int -> delta:int -> unit
  (** Add [delta] to coordinate [index] of the sketched vector,
      [0 <= index < dim t]. *)

  val reset : t -> unit
  (** Back to the zero vector in place, keeping the structure (and the
      off-heap buffer) — a zero-fill, not an allocation.  The load
      generator and the AGM replica arena ({!Ds_par.Shard_ingest}) rely on
      this to recycle sketches across runs. *)

  val space_in_words : t -> int

  val write_body : t -> Ds_util.Wire.sink -> unit
  (** Append the counter body (no envelope). *)

  val read_body : t -> Ds_util.Wire.source -> unit
  (** Overwrite [t]'s counters from a body written by a shape-identical
      sketch. @raise Failure on malformed input. *)
end

type 'a impl = (module S with type t = 'a)

val serialize : ?trace:Ds_obs.Trace.context -> 'a impl -> 'a -> string
(** The sketch's counters in the versioned envelope described above.

    [?trace] adds the envelope's trace-context extension (the shipping
    run's trace and span). Without it the envelope is byte-identical to
    what this module always produced — merge-equality comparisons and
    checkpoint hashes are unaffected.  A reader finding the extension
    records a ["sketch.decode"] span linked to the carried context (when
    tracing is enabled) and otherwise ignores it. *)

(** Why a decode was rejected — the typed face of envelope validation, in
    the order the checks run. A supervising coordinator branches on this
    (retry a [Checksum_mismatch], refuse to retry a [Wrong_family]) instead
    of parsing exception strings. *)
type error =
  | Envelope of Ds_util.Envelope.error
      (** truncated, corrupt, not LSK1, a malformed body (the destination
          may then be partially overwritten) or trailing bytes *)
  | Wrong_family of { expected : string; got : string }  (** mis-routed *)
  | Shape_mismatch of { expected : int array; got : int array }
      (** same family, structurally incompatible parameters *)

val error_to_string : error -> string

val deserialize_result : 'a impl -> 'a -> string -> (unit, error) result
(** Overwrite the destination's counters with a serialized message from a
    compatible sketch. Verifies, in order: length, checksum, magic/version,
    family, shape, and that the body consumes the message exactly. On
    [Error] the destination must be discarded (it may be partially
    overwritten only if the message was forged to pass the checksum; all
    random corruption is caught up front). *)

val deserialize_into : 'a impl -> 'a -> string -> unit
(** Raising wrapper for {!deserialize_result}, kept for call sites that
    treat a bad message as fatal. @raise Failure on any mismatch. *)

val absorb_result : 'a impl -> 'a -> string -> (unit, error) result
(** [absorb_result impl t msg] adds a serialized compatible sketch into [t]
    — the coordinator operation of the distributed setting: deserialize into
    a zero clone, then [add]. On [Error], [t] is untouched (the zero clone
    absorbs any partial parse), which is what lets a supervisor retry the
    same destination. *)

val absorb : 'a impl -> 'a -> string -> unit
(** Raising wrapper for {!absorb_result}. @raise Failure as
    {!deserialize_into}. *)

(** A sketch packed with its implementation — the dynamic counterpart of
    {!impl}, for registries that hold many sketch families at once (e.g. the
    cluster simulator's family table). *)
module Packed : sig
  type t = T : 'a impl * 'a -> t

  val pack : 'a impl -> 'a -> t
  val family : t -> string
  val dim : t -> int
  val shape : t -> int array
  val space_in_words : t -> int
  val update : t -> index:int -> delta:int -> unit
  val reset : t -> unit
  val clone_zero : t -> t
  val serialize : ?trace:Ds_obs.Trace.context -> t -> string
  val deserialize_result : t -> string -> (unit, error) result
  val absorb_result : t -> string -> (unit, error) result
end
