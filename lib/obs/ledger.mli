(** Space ledger: measured sketch space vs. closed-form theorem bounds.

    At a named phase boundary the caller records the live state's
    [space_in_words] (and optionally its serialized wire bytes) next to
    the theorem's closed-form bound in words — e.g. pass-1 spanner
    state against [k * n^(1+1/k) * log2 n] (Theorem 1) or the additive
    sketch against [n * d * log2 n] (Theorem 3).  The ledger reports
    the measured constant [c = words / bound]: the paper's claims hold
    iff [c] stays bounded as [n] grows, so [check] compares [c] to a
    generous polylog-slack tolerance rather than demanding [c <= 1]. *)

type entry = {
  phase : string;
  words : int;  (** measured [space_in_words] at the boundary *)
  wire_bytes : int;  (** serialized bytes at the boundary; 0 if not taken *)
  off_heap_bytes : int;
      (** true off-heap storage cost: sketch counters live in
          {!Ds_util.Words} buffers at 8 bytes per word slot, so this is
          [8 * words] *)
  bound_words : float;  (** closed-form bound in words *)
  constant : float;  (** [words /. bound_words] *)
}

val record : ?wire_bytes:int -> phase:string -> words:int -> float -> unit
(** [record ~phase ~words bound] appends an entry.  No-op when
    {!Metrics.enabled} is false.
    @raise Invalid_argument if [bound <= 0] or [words < 0]. *)

val entries : unit -> entry list
(** Entries in recording order. *)

val check : entry -> bool
(** [check e] is true iff [0 <= e.constant <= 4096], a tolerance that
    covers the polylog factors and repetition constants the asymptotic
    bound hides. *)

val reset : unit -> unit

val pp_entry : Format.formatter -> entry -> unit
(** [phase words=… wire=…B bound=… c=… ok=…] — one line. *)

val to_json : unit -> Ds_util.Json.t
(** JSON array of entries, each with a ["within_bound"] field from
    [check]. *)
