open Ds_sketch

type stream = {
  s_name : string;
  s_family : string;
  s_n : int;
  s_seed : int;
  packed : Linear_sketch.Packed.t;
  agm : Ds_agm.Agm_sketch.t option;
  mutable applied_seq : int;
  mutable durable_seq : int;
  mutable lost_copies : int list;  (* sorted ascending, unique *)
}

type tenant = {
  t_name : string;
  streams : (string, stream) Hashtbl.t;
  mutable words : int;
  mutable generation : int;  (* last durable generation *)
  mutable max_gen_seen : int;  (* never reuse a number a dead server touched *)
  mutable dirty : bool;
}

type t = { tenants : (string, tenant) Hashtbl.t; quota_words : int }

let create ~quota_words = { tenants = Hashtbl.create 16; quota_words }
let quota_words t = t.quota_words
let find_tenant t name = Hashtbl.find_opt t.tenants name

let get_or_add_tenant t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> tn
  | None ->
      let tn =
        {
          t_name = name;
          streams = Hashtbl.create 8;
          words = 0;
          generation = 0;
          max_gen_seen = 0;
          dirty = false;
        }
      in
      Hashtbl.replace t.tenants name tn;
      tn

let find_stream tn name = Hashtbl.find_opt tn.streams name

(* Tenant and stream names become path components of the checkpoint
   store; anything else is rejected at the door. *)
let name_ok s =
  s <> "" && s.[0] <> '.'
  && String.length s <= 64
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true | _ -> false)
       s

let add_stream_unchecked tn ~stream ~family ~n ~seed (made : Families.made) =
  let s =
    {
      s_name = stream;
      s_family = family;
      s_n = n;
      s_seed = seed;
      packed = made.Families.packed;
      agm = made.Families.agm;
      applied_seq = 0;
      durable_seq = 0;
      lost_copies = [];
    }
  in
  Hashtbl.replace tn.streams stream s;
  tn.words <- tn.words + Linear_sketch.Packed.space_in_words s.packed;
  s

(* Admission control happens here: the tenant's measured footprint plus
   the candidate sketch must fit the budget, or the create is refused
   with a typed NACK the client can surface to its operator (retrying
   the same create can never succeed). *)
let create_stream t ~tenant ~stream ~family ~n ~seed =
  if not (name_ok tenant && name_ok stream) then
    Error (Sframe.Bad_frame "tenant/stream name must be [A-Za-z0-9_.-]{1,64}, not dot-led")
  else
    let tn = get_or_add_tenant t tenant in
    match find_stream tn stream with
    | Some s ->
        if s.s_family = family && s.s_n = n && s.s_seed = seed then Ok s
        else Error Sframe.Stream_exists
    | None -> (
        match Families.make ~family ~n ~seed with
        | Error _ -> Error (Sframe.Unknown_family family)
        | Ok made ->
            let words = Linear_sketch.Packed.space_in_words made.Families.packed in
            if tn.words + words > t.quota_words then
              Error
                (Sframe.Quota_exceeded
                   { used_words = tn.words; budget_words = t.quota_words })
            else begin
              tn.dirty <- true;
              Ok (add_stream_unchecked tn ~stream ~family ~n ~seed made)
            end)

type applied = Applied | Duplicate

(* The sequence watermark is what makes every retry/replay path safe:
   frames at or below [applied_seq] are acknowledged without touching
   the sketch (reordered duplicates, client replays after recovery),
   the next contiguous frame is absorbed by linearity, and a gap is a
   typed refusal that tells the client where to rewind. *)
let apply s ~seq ~payload =
  if seq <= 0 then Error (Sframe.Bad_seq { expected = s.applied_seq + 1; got = seq })
  else if seq <= s.applied_seq then Ok Duplicate
  else if seq > s.applied_seq + 1 then
    Error (Sframe.Bad_seq { expected = s.applied_seq + 1; got = seq })
  else
    match Linear_sketch.Packed.absorb_result s.packed payload with
    | Ok () ->
        s.applied_seq <- seq;
        Ok Applied
    | Error e -> Error (Sframe.Bad_frame (Linear_sketch.error_to_string e))

let copies_total s = match s.agm with Some a -> Ds_agm.Agm_sketch.copies a | None -> 1

let surviving_copies s =
  match s.agm with
  | None -> []
  | Some a ->
      List.filter
        (fun c -> not (List.mem c s.lost_copies))
        (List.init (Ds_agm.Agm_sketch.copies a) Fun.id)

let certified_delta s =
  match s.agm with
  | None -> 0.0
  | Some a ->
      Ds_agm.Agm_sketch.certified_delta ~n:(Ds_agm.Agm_sketch.n a)
        ~copies:(List.length (surviving_copies s))

let state s =
  Sframe.State
    {
      payload = Linear_sketch.Packed.serialize s.packed;
      applied_seq = s.applied_seq;
      copies_total = copies_total s;
      copies_lost = List.length s.lost_copies;
      certified_delta = certified_delta s;
    }

(* ------------------------------------------------------------------ *)
(* Checkpoint records                                                  *)
(* ------------------------------------------------------------------ *)

(* AGM streams are checkpointed one LSK1 envelope per repetition: each
   part carries its own checksum, so targeted damage costs one copy
   (degraded quorum, certified delta) instead of the generation. *)
let to_record s =
  let parts =
    match s.agm with
    | Some a ->
        List.init (Ds_agm.Agm_sketch.copies a) (fun c ->
            Ds_agm.Agm_sketch.Copy.serialize (Ds_agm.Agm_sketch.Copy.slice a c))
    | None -> [ Linear_sketch.Packed.serialize s.packed ]
  in
  {
    Checkpoint.r_stream = s.s_name;
    r_family = s.s_family;
    r_n = s.s_n;
    r_seed = s.s_seed;
    r_applied_seq = s.applied_seq;
    r_parts = parts;
  }

let records_of_tenant tn =
  Hashtbl.fold (fun _ s acc -> s :: acc) tn.streams []
  |> List.sort (fun a b -> compare a.s_name b.s_name)
  |> List.map to_record

(* Rebuild one stream from a decoded generation record.  Scalar families
   are all-or-nothing (a bad envelope voids the generation — the caller
   falls back to an older one).  AGM parts degrade per copy; losing
   every copy is indistinguishable from data loss, so that too voids
   the generation. *)
let load_record t ~tenant (r : Checkpoint.record) =
  match
    Families.make ~family:r.Checkpoint.r_family ~n:r.Checkpoint.r_n ~seed:r.Checkpoint.r_seed
  with
  | Error m -> Error m
  | Ok made -> (
      match (made.Families.agm, r.Checkpoint.r_parts) with
      | None, [ part ] -> (
          match Linear_sketch.Packed.deserialize_result made.Families.packed part with
          | Ok () ->
              let tn = get_or_add_tenant t tenant in
              let s =
                add_stream_unchecked tn ~stream:r.Checkpoint.r_stream
                  ~family:r.Checkpoint.r_family ~n:r.Checkpoint.r_n ~seed:r.Checkpoint.r_seed
                  made
              in
              s.applied_seq <- r.Checkpoint.r_applied_seq;
              s.durable_seq <- r.Checkpoint.r_applied_seq;
              Ok 0
          | Error e -> Error (Linear_sketch.error_to_string e))
      | None, _ -> Error "scalar stream with unexpected part count"
      | Some a, parts ->
          if List.length parts <> Ds_agm.Agm_sketch.copies a then
            Error "agm stream with wrong part count"
          else begin
            let lost = ref [] in
            List.iteri
              (fun c part ->
                let slice = Ds_agm.Agm_sketch.Copy.slice a c in
                match Ds_agm.Agm_sketch.Copy.absorb_result slice part with
                | Ok () -> ()
                | Error _ -> lost := c :: !lost)
              parts;
            let lost = List.rev !lost in
            if List.length lost = Ds_agm.Agm_sketch.copies a then
              Error "agm stream with every copy corrupt"
            else begin
              let tn = get_or_add_tenant t tenant in
              let s =
                add_stream_unchecked tn ~stream:r.Checkpoint.r_stream
                  ~family:r.Checkpoint.r_family ~n:r.Checkpoint.r_n ~seed:r.Checkpoint.r_seed
                  made
              in
              s.applied_seq <- r.Checkpoint.r_applied_seq;
              s.durable_seq <- r.Checkpoint.r_applied_seq;
              s.lost_copies <- lost;
              Ok (List.length lost)
            end
          end)

let remove_tenant t name =
  match Hashtbl.find_opt t.tenants name with
  | None -> ()
  | Some _ -> Hashtbl.remove t.tenants name

let stats t =
  let tenants = Hashtbl.length t.tenants in
  let streams = ref 0 and frames = ref 0 and words = ref 0 in
  Hashtbl.iter
    (fun _ tn ->
      streams := !streams + Hashtbl.length tn.streams;
      words := !words + tn.words;
      Hashtbl.iter (fun _ s -> frames := !frames + s.applied_seq) tn.streams)
    t.tenants;
  (tenants, !streams, !frames, !words)

let iter_tenants t f = Hashtbl.iter (fun _ tn -> f tn) t.tenants

let dirty_tenants t =
  Hashtbl.fold (fun _ tn acc -> if tn.dirty then tn :: acc else acc) t.tenants []
  |> List.sort (fun a b -> compare a.t_name b.t_name)

let mark_durable tn ~generation =
  tn.generation <- generation;
  tn.max_gen_seen <- max tn.max_gen_seen generation;
  tn.dirty <- false;
  Hashtbl.iter (fun _ s -> s.durable_seq <- s.applied_seq) tn.streams

let checkpoint_lag tn =
  Hashtbl.fold (fun _ s acc -> acc + (s.applied_seq - s.durable_seq)) tn.streams 0
