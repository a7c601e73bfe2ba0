(** The sketch registry: many small independent linear sketches keyed by
    [(tenant, stream)], with per-tenant space accounting and the
    sequence-watermark discipline that makes retries, replays and
    reordered duplicates idempotent.

    The registry is deliberately transport-free — {!Server} feeds it
    decoded SRV1 requests, recovery feeds it decoded checkpoint records,
    and the test suite feeds it both directly. *)

type stream = {
  s_name : string;
  s_family : string;
  s_n : int;
  s_seed : int;
  packed : Ds_sketch.Linear_sketch.Packed.t;
  agm : Ds_agm.Agm_sketch.t option;
  mutable applied_seq : int;  (** last contiguous frame absorbed *)
  mutable durable_seq : int;  (** last frame inside a durable generation *)
  mutable lost_copies : int list;  (** AGM repetitions lost (degraded) *)
}

type tenant = {
  t_name : string;
  streams : (string, stream) Hashtbl.t;
  mutable words : int;  (** measured footprint, [space_in_words] summed *)
  mutable generation : int;
  mutable max_gen_seen : int;
  mutable dirty : bool;  (** frames applied since the last generation *)
}

type t

val create : quota_words:int -> t
val quota_words : t -> int
val find_tenant : t -> string -> tenant option
val get_or_add_tenant : t -> string -> tenant
val find_stream : tenant -> string -> stream option
val remove_tenant : t -> string -> unit

val name_ok : string -> bool
(** Tenant/stream names become checkpoint path components:
    [[A-Za-z0-9_.-]{1,64}], not dot-led. *)

val create_stream :
  t ->
  tenant:string ->
  stream:string ->
  family:string ->
  n:int ->
  seed:int ->
  (stream, Sframe.nack) result
(** Admission control: refused with [Quota_exceeded] when the tenant's
    measured words plus the candidate sketch would exceed the budget.
    Idempotent for an identical [(family, n, seed)] triple;
    [Stream_exists] otherwise. *)

type applied = Applied | Duplicate

val apply : stream -> seq:int -> payload:string -> (applied, Sframe.nack) result
(** Absorb one LSK1 ingest frame under the watermark discipline:
    [seq <= applied_seq] is a no-op [Duplicate] (idempotent re-ack),
    [seq = applied_seq + 1] absorbs by linearity, anything else is a
    typed [Bad_seq]/[Bad_frame] refusal that leaves the sketch
    untouched. *)

val copies_total : stream -> int

val certified_delta : stream -> float
(** {!Ds_agm.Agm_sketch.certified_delta} of the surviving quorum; 0 for
    scalar families. *)

val state : stream -> Sframe.response
(** The [State] response: full envelope + quorum health. *)

val records_of_tenant : tenant -> Checkpoint.record list
(** Streams sorted by name — generation bytes are deterministic. *)

val load_record : t -> tenant:string -> Checkpoint.record -> (int, string) result
(** Rebuild one stream from a generation record. [Ok lost] gives the
    number of AGM copies that failed their envelope checksum (degraded
    quorum); [Error] means the record cannot be salvaged and the caller
    must fall back to an older generation. *)

val stats : t -> int * int * int * int
(** (tenants, streams, applied frames, words). *)

val iter_tenants : t -> (tenant -> unit) -> unit
val dirty_tenants : t -> tenant list

val mark_durable : tenant -> generation:int -> unit
(** After a successful generation write: advance every stream's durable
    watermark to its applied watermark and clear the dirty bit. *)

val checkpoint_lag : tenant -> int
(** Applied-but-not-durable frames across the tenant's streams. *)
