open Ds_util

type record = {
  r_stream : string;
  r_family : string;
  r_n : int;
  r_seed : int;
  r_applied_seq : int;
  r_parts : string list;
}

(* On-disk generation format (SCP1): an {!Envelope} header, then the
   parts raw.

     tag "SCP1" . int generation . tag tenant . int stream_count
     per stream: tag stream . tag family . int n . int seed
                 . int applied_seq . int part_count . int part_len ...
     fixed64 FNV-1a of every preceding byte          (header checksum)
     parts, concatenated raw

   The header checksum plus an exact total-length check decide torn vs
   whole before any part is touched; each part is itself an LSK1
   envelope with its own checksum, so targeted damage inside one AGM
   repetition degrades that copy instead of voiding the generation. *)

let magic = "SCP1"

let encode ~generation ~tenant records =
  let header =
    Envelope.seal ~magic (fun buf ->
        Wire.write_int buf generation;
        Wire.write_tag buf tenant;
        Wire.write_int buf (List.length records);
        List.iter
          (fun r ->
            Wire.write_tag buf r.r_stream;
            Wire.write_tag buf r.r_family;
            Wire.write_int buf r.r_n;
            Wire.write_int buf r.r_seed;
            Wire.write_int buf r.r_applied_seq;
            Wire.write_int buf (List.length r.r_parts);
            List.iter (fun p -> Wire.write_int buf (String.length p)) r.r_parts)
          records)
  in
  String.concat "" (header :: List.concat_map (fun r -> r.r_parts) records)

let read_header len src =
  let generation = Wire.read_int src in
  let tenant = Wire.read_tag src in
  let count = Wire.read_int src in
  if count < 0 || count > len then failwith "implausible stream count";
  let skeleton =
    List.init count (fun _ ->
        let r_stream = Wire.read_tag src in
        let r_family = Wire.read_tag src in
        let r_n = Wire.read_int src in
        let r_seed = Wire.read_int src in
        let r_applied_seq = Wire.read_int src in
        let part_count = Wire.read_int src in
        if part_count < 0 || part_count > len then failwith "implausible part count";
        let lens =
          List.init part_count (fun _ ->
              let l = Wire.read_int src in
              if l < 0 || l > len then failwith "implausible part length";
              l)
        in
        (r_stream, r_family, r_n, r_seed, r_applied_seq, lens))
  in
  Ok (generation, tenant, skeleton)

let decode data =
  let len = String.length data in
  match
    Envelope.unseal_prefix ~magic ~wrap:Envelope.error_to_string data (read_header len)
  with
  | Error _ as e -> e
  | Ok ((generation, tenant, skeleton), pos) -> (
      let pos = ref pos in
      match
        List.map
          (fun (r_stream, r_family, r_n, r_seed, r_applied_seq, lens) ->
            let r_parts =
              List.map
                (fun l ->
                  if !pos + l > len then failwith "torn: parts cut short";
                  let p = String.sub data !pos l in
                  pos := !pos + l;
                  p)
                lens
            in
            { r_stream; r_family; r_n; r_seed; r_applied_seq; r_parts })
          skeleton
      with
      | records when !pos = len -> Ok (generation, tenant, records)
      | _ -> Error (Printf.sprintf "%d trailing bytes" (len - !pos))
      | exception Failure m -> Error m)

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let tenant_dir ~dir ~tenant = Filename.concat dir tenant
let gen_basename generation = Printf.sprintf "gen-%010d.scp" generation

let gen_path ~dir ~tenant ~generation =
  Filename.concat (tenant_dir ~dir ~tenant) (gen_basename generation)

(* Durable.write_atomic's write-tmp / fsync / rename / fsync-dir: a kill
   -9 at any instant leaves either the previous generation set untouched
   (the [gen-N.scp.tmp] file, whole or torn, is skipped and quarantined on
   recovery) or the new generation fully durable.  There is no window in
   which a reader can see a half-written [.scp]. *)
let write ~dir ~tenant ~generation records =
  Ds_util.Durable.write_atomic
    ~path:(gen_path ~dir ~tenant ~generation)
    (encode ~generation ~tenant records)

let parse_gen name =
  if String.length name = String.length (gen_basename 0)
     && String.sub name 0 4 = "gen-"
     && Filename.check_suffix name ".scp"
  then int_of_string_opt (String.sub name 4 10)
  else None

let list_dir path = try Sys.readdir path with Sys_error _ -> [||]

let generations ~dir ~tenant =
  let entries = list_dir (tenant_dir ~dir ~tenant) in
  Array.to_list entries
  |> List.filter_map parse_gen
  |> List.sort (fun a b -> compare b a)

(* Highest generation number ever used under this tenant, counting torn
   tmp files and quarantined generations — a recovering server must
   never reuse a number a past incarnation may have touched. *)
let max_seen ~dir ~tenant =
  let entries = list_dir (tenant_dir ~dir ~tenant) in
  Array.fold_left
    (fun acc name ->
      let stem =
        if Filename.check_suffix name ".quarantined" then
          Filename.chop_suffix name ".quarantined"
        else name
      in
      let stem =
        if Filename.check_suffix stem ".tmp" then Filename.chop_suffix stem ".tmp" else stem
      in
      match parse_gen stem with Some g -> max acc g | None -> acc)
    0 entries

let quarantine path =
  try Unix.rename path (path ^ ".quarantined") with Unix.Unix_error _ -> ()

(* Torn tmp files left by a crash mid-write: never decoded, quarantined
   by name so post-mortems can inspect them. Returns how many. *)
let quarantine_tmp ~dir ~tenant =
  let tdir = tenant_dir ~dir ~tenant in
  let entries = list_dir tdir in
  Array.fold_left
    (fun acc name ->
      if Filename.check_suffix name ".tmp" then begin
        quarantine (Filename.concat tdir name);
        acc + 1
      end
      else acc)
    0 entries

let prune ~dir ~tenant ~keep =
  match generations ~dir ~tenant with
  | [] -> ()
  | gens ->
      List.iteri
        (fun i g ->
          if i >= keep then
            try Unix.unlink (gen_path ~dir ~tenant ~generation:g) with Unix.Unix_error _ -> ())
        gens

let tenants ~dir =
  list_dir dir |> Array.to_list
  |> List.filter (fun name -> Sys.is_directory (Filename.concat dir name))
  |> List.sort compare

let read path =
  try decode (In_channel.with_open_bin path In_channel.input_all) with Sys_error m -> Error m
