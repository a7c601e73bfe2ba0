(** Crash-consistent per-tenant checkpoint generations (SCP1).

    One file per (tenant, generation) holds every stream of the tenant:
    identity triple (family, n, seed), the applied-sequence watermark,
    and the sketch state as LSK1 parts — one envelope per AGM repetition
    (so targeted damage degrades a copy, not the tenant), one envelope
    for scalar families.

    Durability protocol ({!Ds_util.Durable.write_atomic}): write to
    [gen-N.scp.tmp], [fsync], [rename] to [gen-N.scp], [fsync] the
    directory. A kill [-9] at any instant leaves
    either the previous generation set intact (a [.tmp] is skipped and
    quarantined on recovery, whole or torn) or the new generation fully
    durable — there is no state in which a reader sees a half-written
    [.scp]. Torn or corrupt generations fail the header checksum or the
    exact-length check and are {e quarantined, never decoded}: renamed to
    [*.quarantined] and left for post-mortems. *)

type record = {
  r_stream : string;
  r_family : string;
  r_n : int;
  r_seed : int;
  r_applied_seq : int;  (** every frame up to here is inside the parts *)
  r_parts : string list;  (** LSK1 envelopes, each self-checksummed *)
}

val encode : generation:int -> tenant:string -> record list -> string
val decode : string -> (int * string * record list, string) result
(** [Error] for a torn, truncated, or checksum-failing blob — in every
    such case no part has been interpreted. *)

val write : dir:string -> tenant:string -> generation:int -> record list -> unit
(** The durable write path described above. Creates directories as
    needed. @raise Unix.Unix_error if the write fails. *)

val read : string -> (int * string * record list, string) result
(** Read and decode one generation file by path. *)

val gen_path : dir:string -> tenant:string -> generation:int -> string

val generations : dir:string -> tenant:string -> int list
(** Generation numbers with a well-named [.scp] file, newest first
    (contents not yet validated — recovery walks this list). *)

val max_seen : dir:string -> tenant:string -> int
(** Highest generation number ever used, counting [.tmp] and
    [*.quarantined] leftovers — a recovering server must not reuse a
    number a dead incarnation may have touched. 0 if none. *)

val quarantine : string -> unit
(** Rename a bad generation (or torn tmp) to [path ^ ".quarantined"]. *)

val quarantine_tmp : dir:string -> tenant:string -> int
(** Quarantine every [.tmp] under the tenant (crash-mid-write leftovers);
    returns how many were found. *)

val prune : dir:string -> tenant:string -> keep:int -> unit
(** Unlink all but the newest [keep] valid-named generations. *)

val tenants : dir:string -> string list
(** Tenant subdirectories of a checkpoint root, sorted. *)
