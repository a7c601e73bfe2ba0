(** Deterministic fault injection for the distributed sketching pipeline.

    A {e fault plan} decides, for every message send attempt in a supervised
    cluster run, whether the attempt is faulted and how. Plans are pure
    functions of [(server, message, attempt)] coordinates driven by the
    library's SplitMix64 PRNG ({!Ds_util.Prng}), so every chaos run is
    replayable from one seed and — because draws are stateless per
    coordinate, not per call sequence — independent of the order in which
    the coordinator happens to process servers (sequential and
    domain-parallel supervised runs see the {e same} faults).

    The fault inventory mirrors what a real coordinator faces:
    - [Crash]: the sending server dies. Crashes are {e sticky} — the
      supervisor treats every later message from that server as failed until
      it recovers the shard some other way (re-ingestion by linearity).
    - [Drop]: the message is lost in transit; a retry can succeed.
    - [Corrupt n]: the message arrives with [n] random bit flips — the wire
      checksum must catch it.
    - [Truncate]: the message arrives cut short at a random point.
    - [Duplicate]: the message is delivered twice; the coordinator must
      deduplicate or it double-counts the shard.
    - [Delay d]: the message arrives [d] backoff units late (accounted as
      simulated waiting, then processed normally). *)

type fault =
  | Crash
  | Drop
  | Corrupt of int  (** number of bit flips, >= 1 *)
  | Truncate
  | Duplicate
  | Delay of int  (** backoff units, >= 1 *)

type t

val none : t
(** The empty plan: every draw is [None] (fault-free). *)

val random : seed:int -> rate:float -> t
(** Each [(server, message, attempt)] coordinate is faulted independently
    with probability [rate]; the fault kind and its parameters are drawn
    from a per-coordinate SplitMix64 stream derived from [seed]. Two plans
    built from equal seeds and rates are extensionally equal. *)

val of_list : ?seed:int -> ((int * int * int) * fault) list -> t
(** An explicit plan: the fault at coordinate [(server, message, attempt)]
    (attempts count from 0), [None] elsewhere. [seed] (default 0) drives the
    channel randomness (corruption positions, truncation points). *)

val draw : t -> server:int -> message:int -> attempt:int -> fault option
(** The plan's verdict for one send attempt. Pure: equal coordinates always
    return equal verdicts. *)

val channel_rng : t -> server:int -> message:int -> attempt:int -> Ds_util.Prng.t
(** The per-coordinate randomness used to apply a fault to concrete bytes
    (flip positions, truncation point). Derived from the plan seed, so a
    replayed run corrupts the same bits. *)

val fault_name : fault -> string
(** Stable lowercase kind name ("crash", "drop", "corrupt", "truncate",
    "duplicate", "delay") — the keys of supervised-report breakdowns. *)

val kind_names : string list
(** Every kind name, in the fixed report order. *)

(** What the channel delivers for one send attempt. *)
type delivery =
  | Delivered of string  (** bytes arrived (possibly corrupted or cut) *)
  | Duplicated of string  (** the same bytes arrived twice *)
  | Delayed of int * string  (** arrived [units] backoff units late *)
  | Lost  (** dropped in transit; the sender is still alive *)
  | Crashed  (** the sender died mid-send; nothing arrived *)

val apply : Ds_util.Prng.t -> fault option -> string -> delivery
(** Push one message through the faulted channel. [None] delivers the bytes
    untouched. [Corrupt] and [Truncate] guarantee the delivered bytes differ
    from the sent bytes (a flip is a real change; a truncation is a strict
    prefix), so "delivered unchanged" and "damaged" are mutually exclusive
    outcomes. *)

val corrupt : Ds_util.Prng.t -> flips:int -> string -> string
(** [flips] random single-bit flips (re-drawn if they would cancel out);
    exposed for the fuzz suite. Returns the message unchanged only when it
    is empty. *)

(** {1 Connection-level faults (the serving layer's transport boundary)}

    Frames crossing a socket fail in ways a message channel cannot:
    - [Conn_stall]: a strict prefix of the frame arrives, then the sender
      goes quiet — the receiver holds an incomplete frame until it times
      the connection out.
    - [Conn_disconnect]: a strict prefix arrives and the connection drops;
      the receiver must discard the partial frame, the sender reconnects
      and retries.
    - [Conn_reorder_dup]: the frame is delivered, and delivered {e again}
      after later traffic — the receiver's sequence watermark must make the
      replay idempotent.

    Connection faults draw from their own salted per-[(server, message,
    attempt)] streams, so adding them changed no existing [draw] verdict:
    chaos reports from earlier seeds replay byte-identically. *)

type conn_fault =
  | Conn_stall
  | Conn_disconnect
  | Conn_reorder_dup

val draw_conn : t -> server:int -> message:int -> attempt:int -> conn_fault option
(** The plan's connection-level verdict for one frame send attempt. Pure
    and stateless per coordinate, like {!draw}, and independent of it (its
    own salt), sharing the plan's [rate]. *)

val conn_rng : t -> server:int -> message:int -> attempt:int -> Ds_util.Prng.t
(** Per-coordinate randomness used to apply a connection fault to concrete
    frame bytes (the prefix cut point). *)

val conn_fault_name : conn_fault -> string
(** Stable lowercase kind name ("stall", "disconnect", "reorder_dup"). *)

val conn_kind_names : string list

(** What the transport does with one framed send attempt. *)
type conn_delivery =
  | Conn_delivered of string  (** the whole frame arrived *)
  | Conn_prefix_stall of string
      (** a strict prefix arrived; the connection is alive but silent *)
  | Conn_prefix_close of string
      (** a strict prefix arrived; the connection then closed *)
  | Conn_reordered_dup of string
      (** the frame arrived and will arrive again after the next frame *)

val apply_conn : Ds_util.Prng.t -> conn_fault option -> string -> conn_delivery
(** Push one frame through the faulted transport. [None] delivers the frame
    untouched. Stall/disconnect prefixes are {e strict} prefixes (possibly
    empty), so the receiver is always left with an incomplete frame. *)
