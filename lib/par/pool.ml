type job = Job of (unit -> unit) | Quit

type t = {
  size : int;
  jobs : job Queue.t;
  lock : Mutex.t;
  has_job : Condition.t;
  mutable workers : unit Domain.t array;
  mutable closed : bool;
}

let worker pool =
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.jobs do
      Condition.wait pool.has_job pool.lock
    done;
    let job = Queue.pop pool.jobs in
    Mutex.unlock pool.lock;
    match job with
    | Quit -> ()
    | Job f ->
        f ();
        loop ()
  in
  loop ()

let create ?domains () =
  let size =
    match domains with
    | Some d when d < 1 -> invalid_arg "Pool.create: need at least one domain"
    | Some d -> d
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let pool =
    {
      size;
      jobs = Queue.create ();
      lock = Mutex.create ();
      has_job = Condition.create ();
      workers = [||];
      closed = false;
    }
  in
  pool.workers <- Array.init size (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let size pool = pool.size

let submit pool job =
  (* Capture the submitter's trace context so spans recorded by the
     worker domain parent under the submitting span.  Free when tracing
     is off ([current_context] returns [None] without touching DLS). *)
  let ctx = Ds_obs.Trace.current_context () in
  let job =
    match ctx with
    | None -> job
    | Some _ -> fun () -> Ds_obs.Trace.with_context ctx job
  in
  Mutex.lock pool.lock;
  if pool.closed then begin
    Mutex.unlock pool.lock;
    invalid_arg "Pool.run: pool is shut down"
  end;
  Queue.push (Job job) pool.jobs;
  Condition.signal pool.has_job;
  Mutex.unlock pool.lock

let run pool thunks =
  match thunks with
  | [] -> []
  | [ f ] -> [ f () ] (* nothing to overlap; skip the queue round-trip *)
  | thunks ->
      let n = List.length thunks in
      let results = Array.make n None in
      let pending = ref n in
      let first_error = ref None in
      let done_lock = Mutex.create () in
      let all_done = Condition.create () in
      List.iteri
        (fun i f ->
          submit pool (fun () ->
              let outcome = try Ok (f ()) with e -> Error e in
              Mutex.lock done_lock;
              (match outcome with
              | Ok v -> results.(i) <- Some v
              | Error e -> if !first_error = None then first_error := Some e);
              decr pending;
              if !pending = 0 then Condition.signal all_done;
              Mutex.unlock done_lock))
        thunks;
      Mutex.lock done_lock;
      while !pending > 0 do
        Condition.wait all_done done_lock
      done;
      Mutex.unlock done_lock;
      (match !first_error with Some e -> raise e | None -> ());
      Array.to_list (Array.map Option.get results)

let shutdown pool =
  Mutex.lock pool.lock;
  if not pool.closed then begin
    pool.closed <- true;
    for _ = 1 to pool.size do
      Queue.push Quit pool.jobs
    done;
    Condition.broadcast pool.has_job;
    Mutex.unlock pool.lock;
    Array.iter Domain.join pool.workers;
    pool.workers <- [||]
  end
  else Mutex.unlock pool.lock

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
