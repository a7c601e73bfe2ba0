open Ds_util

type fault =
  | Crash
  | Drop
  | Corrupt of int
  | Truncate
  | Duplicate
  | Delay of int

type t = {
  seed : int;
  rate : float; (* 0.0 for explicit plans *)
  overrides : (int * int * int, fault) Hashtbl.t;
}

let none = { seed = 0; rate = 0.0; overrides = Hashtbl.create 1 }
let random ~seed ~rate =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Fault_plan.random: rate must be in [0, 1]";
  { seed; rate; overrides = Hashtbl.create 1 }

let of_list ?(seed = 0) entries =
  let overrides = Hashtbl.create (List.length entries) in
  List.iter (fun (coord, fault) -> Hashtbl.replace overrides coord fault) entries;
  { seed; rate = 0.0; overrides }

(* Stateless per-coordinate stream: the draw at (server, message, attempt)
   never depends on how many draws happened before it, which is what makes
   sequential and domain-parallel supervised runs see identical faults. *)
let coord_rng t ~server ~message ~attempt ~salt =
  Prng.split_named (Prng.create t.seed)
    (Printf.sprintf "%s.s%d.m%d.a%d" salt server message attempt)

let channel_rng t ~server ~message ~attempt =
  coord_rng t ~server ~message ~attempt ~salt:"channel"

(* Kind weights: transient channel faults (drop/corrupt) dominate, crashes
   are rarer — the usual shape of real incident distributions. *)
let pick_fault rng =
  match Prng.int rng 8 with
  | 0 -> Crash
  | 1 | 2 -> Drop
  | 3 | 4 -> Corrupt (1 + Prng.int rng 4)
  | 5 -> Truncate
  | 6 -> Duplicate
  | _ -> Delay (1 + Prng.int rng 3)

let draw t ~server ~message ~attempt =
  match Hashtbl.find_opt t.overrides (server, message, attempt) with
  | Some f -> Some f
  | None ->
      if t.rate = 0.0 then None
      else
        let rng = coord_rng t ~server ~message ~attempt ~salt:"draw" in
        if Prng.bernoulli rng t.rate then Some (pick_fault rng) else None

let fault_name = function
  | Crash -> "crash"
  | Drop -> "drop"
  | Corrupt _ -> "corrupt"
  | Truncate -> "truncate"
  | Duplicate -> "duplicate"
  | Delay _ -> "delay"

let kind_names = [ "crash"; "drop"; "corrupt"; "truncate"; "duplicate"; "delay" ]

(* Connection-level faults live in their own type (and their own salted
   draw stream, below): the serving layer's transport boundary fails in
   ways a message channel cannot — a peer can go quiet mid-frame, hang
   up mid-frame, or replay a frame after later traffic. Keeping them out
   of [fault] preserves every existing chaos report byte-for-byte. *)
type conn_fault =
  | Conn_stall
  | Conn_disconnect
  | Conn_reorder_dup

let conn_rng t ~server ~message ~attempt =
  coord_rng t ~server ~message ~attempt ~salt:"conn"

let pick_conn_fault rng =
  match Prng.int rng 4 with
  | 0 -> Conn_stall
  | 1 -> Conn_disconnect
  | _ -> Conn_reorder_dup

let draw_conn t ~server ~message ~attempt =
  if t.rate = 0.0 then None
  else
    let rng = coord_rng t ~server ~message ~attempt ~salt:"conn_draw" in
    if Prng.bernoulli rng t.rate then Some (pick_conn_fault rng) else None

let conn_fault_name = function
  | Conn_stall -> "stall"
  | Conn_disconnect -> "disconnect"
  | Conn_reorder_dup -> "reorder_dup"

let conn_kind_names = [ "stall"; "disconnect"; "reorder_dup" ]

type conn_delivery =
  | Conn_delivered of string
  | Conn_prefix_stall of string
  | Conn_prefix_close of string
  | Conn_reordered_dup of string

(* A damaged frame must actually be cut short: the prefix is a strict
   prefix (possibly empty), so the receiver is guaranteed to be left
   holding an incomplete frame. *)
let strict_prefix rng msg =
  let len = String.length msg in
  if len = 0 then "" else String.sub msg 0 (Prng.int rng len)

let apply_conn rng fault msg =
  match fault with
  | None -> Conn_delivered msg
  | Some Conn_stall -> Conn_prefix_stall (strict_prefix rng msg)
  | Some Conn_disconnect -> Conn_prefix_close (strict_prefix rng msg)
  | Some Conn_reorder_dup -> Conn_reordered_dup msg

type delivery =
  | Delivered of string
  | Duplicated of string
  | Delayed of int * string
  | Lost
  | Crashed

let corrupt rng ~flips msg =
  let len = String.length msg in
  if len = 0 then msg
  else begin
    let b = Bytes.of_string msg in
    for _ = 1 to max 1 flips do
      let pos = Prng.int rng len in
      let bit = Prng.int rng 8 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)))
    done;
    (* An even number of flips can land on the same bit and cancel; a
       faulted channel must actually damage the bytes. *)
    if Bytes.to_string b = msg then begin
      let pos = Prng.int rng len in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1))
    end;
    Bytes.to_string b
  end

let apply rng fault msg =
  match fault with
  | None -> Delivered msg
  | Some Crash -> Crashed
  | Some Drop -> Lost
  | Some (Corrupt flips) -> Delivered (corrupt rng ~flips msg)
  | Some Truncate ->
      (* A strict prefix, possibly empty. *)
      let len = String.length msg in
      if len = 0 then Delivered msg else Delivered (String.sub msg 0 (Prng.int rng len))
  | Some Duplicate -> Duplicated msg
  | Some (Delay d) -> Delayed (max 1 d, msg)
