open Ds_util

let max_frame = 16 * 1024 * 1024

type t = {
  mutable data : Bytes.t;
  mutable len : int;  (* bytes buffered *)
  mutable pos : int;  (* bytes consumed *)
  mutable failed : Wire.frame_error option;
}

let create () = { data = Bytes.create 4096; len = 0; pos = 0; failed = None }

let buffered t = t.len - t.pos
let failed t = t.failed

(* The buffer only ever grows to hold one frame's worth of validated
   input plus the following header, so a hostile length prefix cannot
   drive an allocation: the length is checked against [max_frame] before
   the payload bytes are awaited, and [feed] refuses input after a
   failure. *)
let compact t =
  if t.pos > 0 then begin
    let live = t.len - t.pos in
    Bytes.blit t.data t.pos t.data 0 live;
    t.len <- live;
    t.pos <- 0
  end

let feed t s =
  if t.failed = None then begin
    let n = String.length s in
    if t.len + n > Bytes.length t.data then begin
      compact t;
      if t.len + n > Bytes.length t.data then begin
        let cap = ref (max 8 (Bytes.length t.data)) in
        while t.len + n > !cap do
          cap := !cap * 2
        done;
        let bigger = Bytes.create !cap in
        Bytes.blit t.data 0 bigger 0 t.len;
        t.data <- bigger
      end
    end;
    Bytes.blit_string s 0 t.data t.len n;
    t.len <- t.len + n
  end

let next t =
  match t.failed with
  | Some e -> Error e
  | None ->
      if buffered t < Wire.frame_header_length then Ok None
      else begin
        let header = Bytes.sub_string t.data t.pos Wire.frame_header_length in
        match Wire.decode_frame_length ~max:max_frame header ~pos:0 with
        | Error e ->
            t.failed <- Some e;
            Error e
        | Ok len ->
            if buffered t < Wire.frame_header_length + len then Ok None
            else begin
              let payload =
                Bytes.sub_string t.data (t.pos + Wire.frame_header_length) len
              in
              t.pos <- t.pos + Wire.frame_header_length + len;
              if t.pos = t.len then begin
                t.pos <- 0;
                t.len <- 0
              end;
              Ok (Some payload)
            end
      end
