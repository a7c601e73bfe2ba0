(* Telemetry is call-granular: one counter bump per [ingest_into] call,
   never per update, so the enabled overhead on the AGM path stays well
   under the 3% budget. *)
let m_updates = Ds_obs.Metrics.counter "par.ingest.updates"
let m_arena_bytes = Ds_obs.Metrics.gauge "par.ingest.arena_bytes"

(* ------------------------------------------------------------------ *)
(* Replica arenas                                                      *)
(* ------------------------------------------------------------------ *)

(* Worker replicas cost one off-heap buffer each; an arena keeps them
   alive across runs so repeated ingests into the same sketch structure
   stop allocating. A recycled replica is handed back to its worker
   after a [reset] (one buffer fill back to the zero vector — cheaper
   than the blit a fresh clone would need, and equivalent: the zero
   sketch of any linear family is the all-zero buffer). Slot 0 never
   draws from the arena: it ingests directly into the caller's sketch. *)
type 's arena = {
  reset : 's -> unit;
  bytes_of : 's -> int;
  mutable slots : 's option array; (* indexed by worker slot; grown on demand *)
  mutable bytes : int;
}

let arena_bytes a = a.bytes

(* Called before the parallel region: growing [slots] must not race the
   workers' disjoint per-slot reads and writes. *)
let arena_reserve a workers =
  let len = Array.length a.slots in
  if len < workers then begin
    let slots = Array.make workers None in
    Array.blit a.slots 0 slots 0 len;
    a.slots <- slots
  end

(* Called after the parallel region (workers stash replicas into
   disjoint slots during it; accounting would race there). *)
let arena_refresh a =
  a.bytes <-
    Array.fold_left
      (fun acc -> function Some r -> acc + a.bytes_of r | None -> acc)
      0 a.slots;
  if Ds_obs.Metrics.enabled () then Ds_obs.Metrics.set m_arena_bytes a.bytes

(* ------------------------------------------------------------------ *)
(* Static partition                                                    *)
(* ------------------------------------------------------------------ *)

let ingest_into pool ?arena ~clone_zero ~update ~add sketch items =
  let n = Array.length items in
  let workers = min (Pool.size pool) n in
  if workers > 0 then begin
    (match arena with Some a -> arena_reserve a workers | None -> ());
    (* Slot 0 ingests straight into the caller's sketch — by linearity,
       adding its slice in place now or via a replica later is the same
       sum — which makes the one-domain path clone-free and merge-free.
       Other slots draw a recycled replica from the arena when one is
       attached, cloning only on a slot's first use ever. *)
    let replica slot =
      if slot = 0 then sketch
      else
        match arena with
        | None -> clone_zero sketch
        | Some a -> (
            match a.slots.(slot) with
            | Some r ->
                a.reset r;
                r
            | None ->
                let r = clone_zero sketch in
                a.slots.(slot) <- Some r;
                r)
    in
    let work slot () =
      Ds_obs.Trace.with_span "par.worker" (fun () ->
          let r = replica slot in
          let lo = slot * n / workers in
          update r items ~pos:lo ~len:(((slot + 1) * n / workers) - lo);
          r)
    in
    let replicas =
      Ds_obs.Trace.with_span "par.ingest" (fun () ->
          Pool.run pool (List.init workers work))
    in
    (match arena with Some a -> arena_refresh a | None -> ());
    List.iter (fun r -> if r != sketch then add sketch r) replicas;
    Ds_obs.Metrics.incr m_updates n
  end

let agm pool ?arena sketch updates =
  ingest_into pool ?arena ~clone_zero:Ds_agm.Agm_sketch.clone_zero
    ~update:Ds_agm.Agm_sketch.update_slice ~add:Ds_agm.Agm_sketch.add sketch updates

let agm_arena () =
  {
    reset = Ds_agm.Agm_sketch.reset;
    bytes_of = (fun s -> 8 * Ds_agm.Agm_sketch.space_in_words s);
    slots = [||];
    bytes = 0;
  }
