(** Cache-line padded atomics (a stand-in for OCaml 5.2's
    [Atomic.make_contended] on the 5.1 runtime).

    A padded cell occupies its own 128-byte span, so independent cells
    written by different domains never false-share a cache line. Use for
    contended hot-path cells (sharded metric counters, gauge cells);
    plain [Atomic.make] remains right for everything cold — each padded
    cell costs 128 bytes. *)

val words_per_cell : int
(** Heap words per padded cell (16 = 128 bytes on 64-bit). *)

val atomic : int -> int Atomic.t
(** [atomic v] is an [int Atomic.t] holding [v], allocated as a
    {!words_per_cell}-word block so neighbouring allocations cannot
    share its cache line. Supports every [Atomic] operation. Only
    immediate ([int]) payloads are supported. *)

val array : int -> int -> int Atomic.t array
(** [array n v] is [n] independently padded cells, each holding [v] —
    the layout for per-domain sharded counters. *)
