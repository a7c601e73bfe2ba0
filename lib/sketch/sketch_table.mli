(** The linear hash table of sketches from Algorithm 2 (the [H^u_j]
    structures): a linear sketch of a map [key -> payload vector] supporting
    increments to any key's payload, and full recovery of all (key, payload)
    pairs when the number of distinct live keys is at most the capacity.

    Implementation: [rows] hash rows of [capacity] cells. A cell holds a
    1-sparse decoder over the {e key} space (count, key-sum, key-fingerprint
    — all raw integer accumulators) plus the componentwise sum of the
    payloads hashed into it. A cell whose key-decoder reports a singleton
    yields that key's full payload; peeling it out of every row reveals the
    rest, exactly as in {!Sparse_recovery} but with vector-valued entries.
    This realises the packing trick the paper sketches at the end of Section
    3.2 ("treating the sketches associated with nodes [v ∈ V] as
    poly(log n)-length bit numbers and sketching this vector").

    Soundness relies on the payload being a pure integer-linear accumulator
    (see {!Packed_l0}) and on each key's total weight being non-zero whenever
    its payload is non-zero — true in the paper's setting because edge
    multiplicities are non-negative. *)

type t

val create :
  Ds_util.Prng.t -> key_dim:int -> capacity:int -> rows:int -> hash_degree:int -> payload_len:int -> t
(** A table that can recover up to roughly [capacity / 1.3] distinct keys
    whp. [payload_len] is the word length of every payload vector. *)

val update : t -> key:int -> weight:int -> write:(Ds_util.Words.t -> int -> unit) -> unit
(** [update t ~key ~weight ~write] adds [weight] to [key]'s weight and
    applies [write buf off] — which must add an integer-linear contribution
    into [buf.(off .. off + payload_len - 1)] — once per row, to the cell
    [key] hashes to ([buf] is the table's own buffer, [off] the cell's
    payload window). The same [write] must be used symmetrically for
    subtraction by negating deltas. The key is folded once and its powers
    shared by every row hash; a [write] that hashes should do its hashing
    before the call (see {!Packed_l0.prepare}), since it runs once per row.
    @raise Invalid_argument unless [0 <= key < key_dim]. *)

val decode : t -> (int * int * Ds_util.Words.t) list option
(** Recover all live keys: [(key, weight, payload)] triples. [None] when the
    table is over capacity or peeling stalls (detected, never silently
    wrong). Non-destructive: it peels a copy of the key counters only
    ([rows * 3 * capacity] words), and reads payloads in place — a
    recovered key's payload is its cell's payload minus the payloads
    already peeled from that cell, and the final all-clear check reads each
    cell's payload once. *)

val add : t -> t -> unit
val sub : t -> t -> unit
val space_in_words : t -> int

val clone_zero : t -> t
(** A fresh all-zero table sharing [t]'s (immutable) hash functions and
    fingerprint base. Tables are mergeable iff built from equal PRNG state,
    so a clone is the only safe way to mint a compatible replica. *)

val copy : t -> t

val write : t -> Ds_util.Wire.sink -> unit
val read_into : t -> Ds_util.Wire.source -> unit
(** Counter (de)serialisation; see {!One_sparse.write}.
    @raise Failure on mismatch or truncation. *)

module Linear : Linear_sketch.S with type t = t
(** [update ~index ~delta] adds [delta] to key [index]'s weight with a zero
    payload contribution. *)
