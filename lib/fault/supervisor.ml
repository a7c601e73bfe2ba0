let max_attempts = 5

(* The backoff doubles from one time unit and stops growing here. *)
let max_delay = 8.0

let delay_before ~attempt =
  if attempt <= 0 then 0.0 else min max_delay (2.0 ** float_of_int (attempt - 1))

type stats = { attempts : int; backoff : float }

(* Simulated-time backoff is a float of abstract units; the counter
   carries milli-units so it stays an integer metric. *)
let m_retries = Ds_obs.Metrics.counter "fault.retries"
let m_backoff_milli = Ds_obs.Metrics.counter "fault.backoff_milli"
let m_gave_up = Ds_obs.Metrics.counter "fault.gave_up"

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
  let ((result, stats) as r) = go 0 0.0 in
  if Ds_obs.Metrics.enabled () then begin
    Ds_obs.Metrics.incr m_retries (stats.attempts - 1);
    Ds_obs.Metrics.incr m_backoff_milli
      (int_of_float ((stats.backoff *. 1000.) +. 0.5));
    match result with
    | Error _ -> Ds_obs.Metrics.incr m_gave_up 1
    | Ok _ -> ()
  end;
  r
