(** Retry with capped exponential backoff — the supervising coordinator's
    schedule for transient faults (drops, detected corruption). Time is
    {e simulated}: the supervisor accounts the backoff it would have slept
    (in abstract units) instead of sleeping, so chaos experiments are fast
    and their reports deterministic. *)

val max_attempts : int
(** Total tries per message: 5 — small enough that a hostile plan cannot
    stall a chaos sweep. *)

val delay_before : attempt:int -> float
(** Backoff charged before attempt [attempt] (attempts count from 0; the
    first attempt is free): 0, 1, 2, 4 and 8 units for attempts 0 to 4,
    doubling from one unit and capped at 8. *)

type stats = {
  attempts : int;  (** attempts actually made, >= 1 *)
  backoff : float;  (** total simulated waiting *)
}

val retry : (attempt:int -> ('a, 'e) result) -> ('a, 'e) result * stats
(** Run [f ~attempt:0], then on [Error] charge backoff and retry, up to
    {!max_attempts} attempts. Returns the first [Ok], or the last [Error]
    with the accumulated stats. *)
