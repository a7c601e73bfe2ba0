type t = { n : int; adj : (int, int) Hashtbl.t array (* neighbour -> multiplicity *) }

let create n =
  if n < 1 then invalid_arg "Graph.create: need at least one vertex";
  { n; adj = Array.init n (fun _ -> Hashtbl.create 4) }

let n t = t.n

let check_pair t u v =
  if u = v then invalid_arg "Graph: self-loop";
  if u < 0 || v < 0 || u >= t.n || v >= t.n then invalid_arg "Graph: vertex out of range"

let multiplicity t u v =
  check_pair t u v;
  match Hashtbl.find_opt t.adj.(u) v with Some m -> m | None -> 0

let add_edge t u v =
  check_pair t u v;
  let bump a b =
    let m = match Hashtbl.find_opt t.adj.(a) b with Some m -> m | None -> 0 in
    Hashtbl.replace t.adj.(a) b (m + 1)
  in
  bump u v;
  bump v u

let remove_edge t u v =
  check_pair t u v;
  let drop a b =
    match Hashtbl.find_opt t.adj.(a) b with
    | None | Some 0 -> invalid_arg "Graph.remove_edge: multiplicity already zero"
    | Some 1 -> Hashtbl.remove t.adj.(a) b
    | Some m -> Hashtbl.replace t.adj.(a) b (m - 1)
  in
  drop u v;
  drop v u

let mem_edge t u v = multiplicity t u v > 0
let degree t u = Hashtbl.length t.adj.(u)
let iter_neighbors t u f = Hashtbl.iter (fun v _ -> f v) t.adj.(u)

let iter_edges t f =
  for u = 0 to t.n - 1 do
    Hashtbl.iter (fun v _ -> if u < v then f u v) t.adj.(u)
  done

let edges t =
  let acc = ref [] in
  iter_edges t (fun u v -> acc := (u, v) :: !acc);
  !acc

let num_edges t =
  let c = ref 0 in
  iter_edges t (fun _ _ -> incr c);
  !c

let copy t = { t with adj = Array.map Hashtbl.copy t.adj }

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let subgraph t ~keep =
  let g = create t.n in
  iter_edges t (fun u v -> if keep u v then add_edge g u v);
  g

let union a b =
  if a.n <> b.n then invalid_arg "Graph.union: size mismatch";
  let g = create a.n in
  iter_edges a (fun u v -> add_edge g u v);
  iter_edges b (fun u v -> if not (mem_edge g u v) then add_edge g u v);
  g

let is_subgraph ~sub ~super =
  let ok = ref true in
  iter_edges sub (fun u v -> if not (mem_edge super u v) then ok := false);
  !ok

let equal_edge_sets a b =
  a.n = b.n && is_subgraph ~sub:a ~super:b && is_subgraph ~sub:b ~super:a
