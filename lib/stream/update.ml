open Ds_graph

type sign = Insert | Delete
type t = { u : int; v : int; sign : sign }
type weighted = { wu : int; wv : int; weight : float; wsign : sign }

let delta t = match t.sign with Insert -> 1 | Delete -> -1
let insert u v = { u; v; sign = Insert }
let delete u v = { u; v; sign = Delete }

let apply g t =
  match t.sign with Insert -> Graph.add_edge g t.u t.v | Delete -> Graph.remove_edge g t.u t.v

let apply_all g updates = Array.iter (apply g) updates

let final_graph ~n updates =
  let g = Graph.create n in
  apply_all g updates;
  g

let is_valid ~n updates =
  try
    ignore (final_graph ~n updates);
    true
  with Invalid_argument _ -> false
