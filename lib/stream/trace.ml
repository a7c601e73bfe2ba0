let sign_char = function Update.Insert -> '+' | Update.Delete -> '-'

let to_string updates =
  let buf = Buffer.create (16 * Array.length updates) in
  Array.iter
    (fun { Update.u; v; sign } -> Buffer.add_string buf (Printf.sprintf "%c %d %d\n" (sign_char sign) u v))
    updates;
  Buffer.contents buf

let parse_line ~lineno line =
  let fail () = failwith (Printf.sprintf "Trace: malformed line %d: %S" lineno line) in
  match String.split_on_char ' ' (String.trim line) with
  | [ s; a; b ] -> (
      let sign =
        match s with "+" -> Update.Insert | "-" -> Update.Delete | _ -> fail ()
      in
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some u, Some v -> { Update.u; v; sign }
      | _ -> fail ())
  | _ -> fail ()

let of_string text =
  let updates = ref [] in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then updates := parse_line ~lineno:(i + 1) line :: !updates)
    (String.split_on_char '\n' text);
  Array.of_list (List.rev !updates)

let save path updates = Ds_util.Durable.write_atomic ~path (to_string updates)
let load path = of_string (In_channel.with_open_bin path In_channel.input_all)
