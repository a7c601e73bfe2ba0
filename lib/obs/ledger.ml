type entry = {
  phase : string;
  words : int;
  wire_bytes : int;
  off_heap_bytes : int;
  bound_words : float;
  constant : float;
}

let lock = Mutex.create ()
let items : entry list ref = ref []

let record ?(wire_bytes = 0) ~phase ~words bound =
  if Metrics.enabled () then begin
    if bound <= 0. then invalid_arg "Ds_obs.Ledger.record: bound must be > 0";
    if words < 0 then invalid_arg "Ds_obs.Ledger.record: words must be >= 0";
    let e =
      {
        phase;
        words;
        wire_bytes;
        (* Sketch counters live in off-heap word buffers (Ds_util.Words,
           8 bytes per slot). *)
        off_heap_bytes = 8 * words;
        bound_words = bound;
        constant = float_of_int words /. bound;
      }
    in
    Mutex.lock lock;
    items := e :: !items;
    Mutex.unlock lock
  end

let entries () =
  Mutex.lock lock;
  let l = List.rev !items in
  Mutex.unlock lock;
  l

(* The asymptotic bounds drop polylog factors and the per-level
   repetition constants of the l0-sampler stack; measured constants for
   honest reproductions land well under this. *)
let tolerance = 4096.
let check e = e.constant >= 0. && e.constant <= tolerance

let reset () =
  Mutex.lock lock;
  items := [];
  Mutex.unlock lock

let pp_entry ppf e =
  Format.fprintf ppf "%s words=%d wire=%dB off_heap=%dB bound=%.1f c=%.3f ok=%b" e.phase
    e.words e.wire_bytes e.off_heap_bytes e.bound_words e.constant (check e)

let to_json () =
  let open Ds_util.Json in
  Arr
    (List.map
       (fun e ->
         Obj
           [
             ("phase", Str e.phase);
             ("words", int e.words);
             ("wire_bytes", int e.wire_bytes);
             ("off_heap_bytes", int e.off_heap_bytes);
             ("bound_words", Num e.bound_words);
             ("constant", Num e.constant);
             ("within_bound", Bool (check e));
           ])
       (entries ()))
