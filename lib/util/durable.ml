let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Makes the rename itself durable; best effort, since some filesystems
   refuse to open or fsync a directory. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let write_atomic ~path data =
  let dir = Filename.dirname path in
  mkdir_p dir;
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* POSIX permits partial writes on regular files (large buffers,
         EINTR): loop until the whole image is down, then fsync. *)
      let len = String.length data in
      let pos = ref 0 in
      while !pos < len do
        match Unix.write_substring fd data !pos (len - !pos) with
        | n -> pos := !pos + n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      Unix.fsync fd);
  Unix.rename tmp path;
  fsync_dir dir
