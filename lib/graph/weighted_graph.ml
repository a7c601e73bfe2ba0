type t = { n : int; adj : (int, float) Hashtbl.t array }

let create n =
  if n < 1 then invalid_arg "Weighted_graph.create: need at least one vertex";
  { n; adj = Array.init n (fun _ -> Hashtbl.create 4) }

let n t = t.n

let check_pair t u v =
  if u = v then invalid_arg "Weighted_graph: self-loop";
  if u < 0 || v < 0 || u >= t.n || v >= t.n then
    invalid_arg "Weighted_graph: vertex out of range"

let weight t u v =
  check_pair t u v;
  Hashtbl.find_opt t.adj.(u) v

let mem_edge t u v = weight t u v <> None

let add_edge t u v w =
  check_pair t u v;
  if w <= 0.0 then invalid_arg "Weighted_graph.add_edge: weight must be positive";
  if mem_edge t u v then invalid_arg "Weighted_graph.add_edge: edge already present";
  Hashtbl.replace t.adj.(u) v w;
  Hashtbl.replace t.adj.(v) u w

let remove_edge t u v =
  check_pair t u v;
  if not (mem_edge t u v) then invalid_arg "Weighted_graph.remove_edge: edge absent";
  Hashtbl.remove t.adj.(u) v;
  Hashtbl.remove t.adj.(v) u

let iter_edges t f =
  for u = 0 to t.n - 1 do
    Hashtbl.iter (fun v w -> if u < v then f u v w) t.adj.(u)
  done

let edges t =
  let acc = ref [] in
  iter_edges t (fun u v w -> acc := (u, v, w) :: !acc);
  !acc

let num_edges t =
  let c = ref 0 in
  iter_edges t (fun _ _ _ -> incr c);
  !c

let degree t u = Hashtbl.length t.adj.(u)
let iter_neighbors t u f = Hashtbl.iter f t.adj.(u)

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v, w) -> add_edge g u v w) es;
  g

let unweighted t =
  let g = Graph.create t.n in
  iter_edges t (fun u v _ -> Graph.add_edge g u v);
  g

let of_graph ?(weight = 1.0) g =
  let t = create (Graph.n g) in
  Graph.iter_edges g (fun u v -> add_edge t u v weight);
  t
