(** Minimal zero-dependency JSON reader/writer — the only one in lib/ and
    bin/.

    Every document the repo emits ([ds_obs/v1], span JSONL, Chrome traces,
    [serve_stats/v1], [flight/v1]) is built as a {!t} and printed by
    {!to_string}; in-tree consumers — [dynospan serve-stats], the
    flight-recorder post-mortem, the trace analyzer, tests — read them
    back with {!parse}. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
      (** exact integers: {!parse} reads every integer literal that fits in
          64 bits as [Int], and {!to_string} prints it as plain digits *)
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict parse of a complete document; trailing non-whitespace bytes
    are an error. *)

val to_string : t -> string
(** Compact (single-line) serialization. A [Num] prints as plain digits
    when it is integral (so it reads back as [Int]) and otherwise with
    the fewest digits that read back as the same float; NaN prints as
    [null] and infinities as [1e999]/[-1e999]. Strings are printed byte
    for byte except for the quote, the backslash and control bytes, which
    are escaped. *)

val int : int -> t
(** [Int] of an OCaml int. *)

val member : string -> t -> t option
(** [member k v] is the value bound to [k] when [v] is an object. *)

val path : string list -> t -> t option
(** [path ["a";"b"] v] walks nested objects. *)

val to_float : t -> float option
(** Of [Int] and [Num]. *)

val to_int : t -> int option
(** Of [Int] and [Num] (truncated). *)

val to_int64 : t -> int64 option
(** Of [Int] (exact) and [Num] (truncated). *)

val to_str : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option
