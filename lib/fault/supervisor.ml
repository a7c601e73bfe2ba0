let max_attempts = 5

(* The backoff doubles from one time unit and stops growing here. *)
let max_delay = 8.0

let delay_before ~attempt =
  if attempt <= 0 then 0.0 else min max_delay (2.0 ** float_of_int (attempt - 1))

type stats = { attempts : int; backoff : float }

let retry f =
  let rec go attempt backoff =
    let backoff = backoff +. delay_before ~attempt in
    (* Each attempt is a child span, so retries show up individually on
       the trace's critical path. *)
    match Ds_obs.Trace.with_span "fault.attempt" (fun () -> f ~attempt) with
    | Ok _ as ok -> (ok, { attempts = attempt + 1; backoff })
    | Error _ as err ->
        if attempt + 1 >= max_attempts then (err, { attempts = attempt + 1; backoff })
        else go (attempt + 1) backoff
  in
  go 0 0.0
