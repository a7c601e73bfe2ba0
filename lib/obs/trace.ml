type span = {
  name : string;
  start_ns : int64;
  dur_ns : int64;
  domain : int;
  pid : int;
  trace_id : int64;
  span_id : int64;
  parent_id : int64;
}

type context = { trace_id : int64; span_id : int64 }

let dummy =
  {
    name = "";
    start_ns = 0L;
    dur_ns = 0L;
    domain = 0;
    pid = 0;
    trace_id = 0L;
    span_id = 0L;
    parent_id = 0L;
  }

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

external getpid : unit -> int = "ds_obs_getpid"

let pid = getpid ()

(* Span/trace ids: a SplitMix64 finalizer over (pid, global counter).  The
   finalizer is a bijection on 64 bits, so two ids collide only if their
   (pid, counter) words collide: never within a process (the counter is a
   fetch-and-add), and across processes only once a counter passes 2^40.
   Ids are folded to 63 bits (positive when printed as JSON integers); 0 is
   reserved for "no parent". *)
let id_counter = Atomic.make 0

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let fresh_id () =
  let c = Atomic.fetch_and_add id_counter 1 in
  let word = Int64.logxor (Int64.shift_left (Int64.of_int pid) 40) (Int64.of_int c) in
  let id = Int64.logand (mix64 word) 0x7fffffffffffffffL in
  if id = 0L then 1L else id

(* The ambient span stack is domain-local: [with_span] nests automatically
   within one domain, and execution boundaries (pool submission, wire
   envelopes) carry a {!context} across explicitly. *)
let stack_key : (int64 * int64) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let current_context () =
  if not (Atomic.get enabled_flag) then None
  else
    match !(Domain.DLS.get stack_key) with
    | (trace_id, span_id) :: _ -> Some { trace_id; span_id }
    | [] -> None

let with_context ctx f =
  match ctx with
  | None -> f ()
  | Some { trace_id; span_id } ->
      let st = Domain.DLS.get stack_key in
      let saved = !st in
      st := [ (trace_id, span_id) ];
      Fun.protect ~finally:(fun () -> st := saved) f

(* The ring is an array of boxed records: a slot write is a single
   pointer store, so concurrent readers never see a torn span.  [next]
   counts every span ever recorded; slot = next mod capacity. *)
let ring = ref (Array.make 4096 dummy)
let next = Atomic.make 0
let capacity () = Array.length !ring

let reset ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Ds_obs.Trace.reset: capacity must be > 0"
  | Some c -> ring := Array.make c dummy
  | None -> Array.fill !ring 0 (Array.length !ring) dummy);
  Atomic.set next 0

let push sp =
  let r = !ring in
  let i = Atomic.fetch_and_add next 1 in
  r.(i mod Array.length r) <- sp

(* Ambient ids for a new span: inherit the domain's open span as parent, or
   start a fresh trace at the root. *)
let ambient_ids () =
  match !(Domain.DLS.get stack_key) with
  | (trace_id, span_id) :: _ -> (trace_id, span_id)
  | [] -> (fresh_id (), 0L)

let record name ~start_ns ~dur_ns =
  if Atomic.get enabled_flag then begin
    let trace_id, parent_id = ambient_ids () in
    push
      {
        name;
        start_ns;
        dur_ns;
        domain = (Domain.self () :> int);
        pid;
        trace_id;
        span_id = fresh_id ();
        parent_id;
      }
  end

let record_linked name { trace_id; span_id = parent_id } ~start_ns ~dur_ns =
  if Atomic.get enabled_flag then
    push
      {
        name;
        start_ns;
        dur_ns;
        domain = (Domain.self () :> int);
        pid;
        trace_id;
        span_id = fresh_id ();
        parent_id;
      }

let with_span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let st = Domain.DLS.get stack_key in
    let trace_id, parent_id =
      match !st with (t, s) :: _ -> (t, s) | [] -> (fresh_id (), 0L)
    in
    let span_id = fresh_id () in
    st := (trace_id, span_id) :: !st;
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        (match !st with _ :: tl -> st := tl | [] -> ());
        push
          {
            name;
            start_ns = t0;
            dur_ns = Clock.elapsed_ns t0;
            domain = (Domain.self () :> int);
            pid;
            trace_id;
            span_id;
            parent_id;
          })
      f
  end

let recorded () = Atomic.get next

let spans () =
  let r = !ring in
  let cap = Array.length r in
  let total = Atomic.get next in
  let kept = min total cap in
  let first = total - kept in
  List.init kept (fun i -> r.((first + i) mod cap))

let dropped () = max 0 (recorded () - min (recorded ()) (capacity ()))

let span_to_json sp =
  let open Ds_util.Json in
  Obj
    [
      ("name", Str sp.name);
      ("start_ns", Int sp.start_ns);
      ("dur_ns", Int sp.dur_ns);
      ("domain", int sp.domain);
      ("pid", int sp.pid);
      ("trace_id", Int sp.trace_id);
      ("span_id", Int sp.span_id);
      ("parent_id", Int sp.parent_id);
    ]

let to_jsonl () =
  let b = Buffer.create 1024 in
  List.iter
    (fun sp ->
      Buffer.add_string b (Ds_util.Json.to_string (span_to_json sp));
      Buffer.add_char b '\n')
    (spans ());
  Buffer.contents b
