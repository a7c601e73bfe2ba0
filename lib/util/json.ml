(* Minimal JSON reader/writer, the only one in lib/ and bin/.

   Every JSON document the repo emits (the ds_obs/v1 report, span JSONL,
   Chrome traces, serve_stats/v1, flight/v1) is built as a [t] and
   printed by [to_string]; [dynospan serve-stats], the flight-recorder
   post-mortem, the trace analyzer and the tests read them back with
   [parse].  It is a strict recursive-descent parser (objects, arrays,
   strings with escapes, numbers incl. exponents, booleans, null), with
   enough generality to read anything a scraper like jq would accept.
   Integer literals that fit in 64 bits stay exact ([Int]): span and
   trace ids use all 63 bits, beyond double precision. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let next c =
  match peek c with
  | Some ch ->
      c.pos <- c.pos + 1;
      ch
  | None -> fail "unexpected end of input at %d" c.pos

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      c.pos <- c.pos + 1;
      skip_ws c
  | _ -> ()

let expect c ch =
  let got = next c in
  if got <> ch then fail "expected %C at %d, got %C" ch (c.pos - 1) got

let expect_word c w =
  let n = String.length w in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = w then
    c.pos <- c.pos + n
  else fail "expected %s at %d" w c.pos

let utf8_add b u =
  if u < 0x80 then Buffer.add_char b (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char b (Char.chr (0xc0 lor (u lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xe0 lor (u lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xf0 lor (u lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
  end

let hex4 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match next c with
      | '0' .. '9' as ch -> Char.code ch - Char.code '0'
      | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
      | ch -> fail "bad hex digit %C at %d" ch (c.pos - 1)
    in
    v := (!v * 16) + d
  done;
  !v

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match next c with
    | '"' -> Buffer.contents b
    | '\\' ->
        (match next c with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
            let u = hex4 c in
            (* Surrogate pair: combine when a low surrogate follows. *)
            if u >= 0xd800 && u <= 0xdbff then begin
              expect c '\\';
              expect c 'u';
              let lo = hex4 c in
              if lo >= 0xdc00 && lo <= 0xdfff then
                utf8_add b
                  (0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00))
              else fail "bad low surrogate at %d" c.pos
            end
            else utf8_add b u
        | ch -> fail "bad escape %C at %d" ch (c.pos - 1));
        go ()
    | ch -> Buffer.add_char b ch; go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.src start (c.pos - start) in
  let unsigned =
    if String.starts_with ~prefix:"-" s then String.sub s 1 (String.length s - 1) else s
  in
  let integral =
    unsigned <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) unsigned
  in
  match (if integral then Int64.of_string_opt s else None) with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Num f
      | None -> fail "bad number %S at %d" s start)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match next c with
          | ',' -> members ((k, v) :: acc)
          | '}' -> Obj (List.rev ((k, v) :: acc))
          | ch -> fail "expected ',' or '}' at %d, got %C" (c.pos - 1) ch
        in
        members []
      end
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value c in
          skip_ws c;
          match next c with
          | ',' -> elems (v :: acc)
          | ']' -> Arr (List.rev (v :: acc))
          | ch -> fail "expected ',' or ']' at %d, got %C" (c.pos - 1) ch
        in
        elems []
      end
  | Some '"' -> Str (parse_string c)
  | Some 't' ->
      expect_word c "true";
      Bool true
  | Some 'f' ->
      expect_word c "false";
      Bool false
  | Some 'n' ->
      expect_word c "null";
      Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail "unexpected %C at %d" ch c.pos
  | None -> fail "unexpected end of input at %d" c.pos

let parse s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then
        Error (Printf.sprintf "trailing bytes at %d" c.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* --- printing --- *)

let escape_to b s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* Integral values below 1e15 print as plain digits; the rest with the
   fewest significant digits (12, 15 or 17) that read back as the same
   float, and never as an integer literal.  JSON has no infinities:
   "1e999" reads back as one. *)
let number_to_string f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.abs f = Float.infinity then if f > 0. then "1e999" else "-1e999"
  else
    let digits p = Printf.sprintf "%.*g" p f in
    let s =
      match List.find_opt (fun p -> float_of_string (digits p) = f) [ 12; 15 ] with
      | Some p -> digits p
      | None -> digits 17
    in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (Int64.to_string i)
  | Num f -> Buffer.add_string b (number_to_string f)
  | Str s ->
      Buffer.add_char b '"';
      escape_to b s;
      Buffer.add_char b '"'
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape_to b k;
          Buffer.add_string b "\":";
          write b v)
        l;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* --- accessors --- *)

let member key = function
  | Obj l -> List.assoc_opt key l
  | _ -> None

let int n = Int (Int64.of_int n)
let to_float = function Int i -> Some (Int64.to_float i) | Num f -> Some f | _ -> None
let to_int = function Int i -> Some (Int64.to_int i) | Num f -> Some (int_of_float f) | _ -> None
let to_int64 = function Int i -> Some i | Num f -> Some (Int64.of_float f) | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr l -> Some l | _ -> None
let to_obj = function Obj l -> Some l | _ -> None

let path keys v =
  List.fold_left
    (fun acc k -> match acc with Some v -> member k v | None -> None)
    (Some v) keys
