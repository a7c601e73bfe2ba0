(** Causal span tracing into a fixed-size ring buffer.

    Spans carry monotonic-clock timestamps ({!Clock.now_ns}), the id of
    the recording domain/process, and {e causal ids}: every span has a
    [span_id], a [parent_id] (the span that was open on the same domain
    when it started, or [0] for a root) and a [trace_id] shared by every
    span of one logical run.  Nesting is automatic within a domain
    ({!with_span} keeps a domain-local span stack); across execution
    boundaries — pool task submission, wire envelopes, retries — the
    caller carries a {!context} explicitly ({!current_context} /
    {!with_context}) so the receiving side's spans link into the sending
    side's trace.

    The ring keeps the most recent [capacity] spans; older ones are
    overwritten (the total recorded count is still reported, so drops
    are visible).  Disabled tracing costs one atomic load + branch per
    [with_span].

    Ids are 63-bit positive integers from a SplitMix64 stream keyed by
    [(pid, counter)]: unique within a process, and distinct across
    processes (for merged multi-process trace files) as long as no
    process records 2^40 spans.  [0] never names a span — it is the
    "no parent" marker. *)

type span = {
  name : string;
  start_ns : int64;  (** monotonic, arbitrary origin *)
  dur_ns : int64;
  domain : int;  (** integer id of the recording domain *)
  pid : int;  (** recording process, for merged multi-process traces *)
  trace_id : int64;  (** shared by all spans of one logical run *)
  span_id : int64;  (** unique, never 0 *)
  parent_id : int64;  (** 0 for a trace root *)
}

type context = { trace_id : int64; span_id : int64 }
(** A point in some trace: enough to parent new spans under [span_id]. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val capacity : unit -> int
(** Current ring capacity (default 4096). *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] and, when enabled, records a span even
    if [f] raises.  The span's parent is the innermost [with_span] open
    on this domain (via {!with_context} at an execution boundary);
    without one it starts a fresh trace. *)

val current_context : unit -> context option
(** The innermost open span on this domain, as a carryable context.
    [None] when tracing is disabled or no span is open — so capturing a
    context at a boundary is free in the disabled path. *)

val with_context : context option -> (unit -> 'a) -> 'a
(** [with_context ctx f] runs [f] with [ctx] installed as the ambient
    parent: spans created inside attach under [ctx.span_id] and inherit
    [ctx.trace_id].  The previous ambient stack is restored afterwards
    (exception-safe).  [with_context None f] is [f ()]. *)

val record : string -> start_ns:int64 -> dur_ns:int64 -> unit
(** Record a span with explicit timestamps (for replaying external
    timings).  Parented like {!with_span}.  No-op when disabled. *)

val record_linked : string -> context -> start_ns:int64 -> dur_ns:int64 -> unit
(** Record a span whose parent is the given carried context rather than
    the ambient stack — how a decode span links to the trace embedded
    in a wire envelope.  No-op when disabled. *)

val spans : unit -> span list
(** The retained spans in recording order (oldest first). *)

val recorded : unit -> int
(** Total spans recorded since the last [reset], including overwritten
    ones. *)

val dropped : unit -> int
(** Spans overwritten by ring wraparound:
    [recorded () - List.length (spans ())]. *)

val reset : ?capacity:int -> unit -> unit
(** Clear the ring; optionally resize it.
    @raise Invalid_argument on non-positive capacity. *)

val span_to_json : span -> Ds_util.Json.t
(** One span as a JSON object, ids as exact integers. *)

val to_jsonl : unit -> string
(** One JSON object per line:
    [{"name":..,"start_ns":..,"dur_ns":..,"domain":..,"pid":..,
      "trace_id":..,"span_id":..,"parent_id":..}]. *)
