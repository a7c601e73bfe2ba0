open Ds_util

let gnp rng ~n ~p =
  let g = Graph.create n in
  Edge_index.iter_pairs ~n (fun u v -> if Prng.bernoulli rng p then Graph.add_edge g u v);
  g

let gnm rng ~n ~m =
  let dim = Edge_index.dim n in
  if m > dim then invalid_arg "Gen.gnm: too many edges";
  let g = Graph.create n in
  let added = ref 0 in
  while !added < m do
    let idx = Prng.int rng dim in
    let u, v = Edge_index.decode ~n idx in
    if not (Graph.mem_edge g u v) then begin
      Graph.add_edge g u v;
      incr added
    end
  done;
  g

let path n =
  let g = Graph.create n in
  for i = 0 to n - 2 do
    Graph.add_edge g i (i + 1)
  done;
  g

let cycle n =
  let g = path n in
  if n > 2 then Graph.add_edge g (n - 1) 0;
  g

let complete n =
  let g = Graph.create n in
  Edge_index.iter_pairs ~n (fun u v -> Graph.add_edge g u v);
  g

let star n =
  let g = Graph.create n in
  for i = 1 to n - 1 do
    Graph.add_edge g 0 i
  done;
  g

let grid r c =
  let g = Graph.create (r * c) in
  let id i j = (i * c) + j in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      if j + 1 < c then Graph.add_edge g (id i j) (id i (j + 1));
      if i + 1 < r then Graph.add_edge g (id i j) (id (i + 1) j)
    done
  done;
  g

let barbell m =
  let g = Graph.create (2 * m) in
  Edge_index.iter_pairs ~n:m (fun u v ->
      Graph.add_edge g u v;
      Graph.add_edge g (m + u) (m + v));
  Graph.add_edge g (m - 1) m;
  g

let lollipop m len =
  let g = Graph.create (m + len) in
  Edge_index.iter_pairs ~n:m (fun u v -> Graph.add_edge g u v);
  for i = 0 to len - 1 do
    Graph.add_edge g (m - 1 + i) (m + i)
  done;
  g

let disjoint_cliques _rng ~count ~size =
  let g = Graph.create (count * size) in
  for c = 0 to count - 1 do
    let base = c * size in
    Edge_index.iter_pairs ~n:size (fun u v -> Graph.add_edge g (base + u) (base + v))
  done;
  g

let preferential_attachment rng ~n ~m =
  if n < m + 1 then invalid_arg "Gen.preferential_attachment: n too small";
  let g = Graph.create n in
  (* Seed clique on the first m+1 vertices. *)
  Edge_index.iter_pairs ~n:(m + 1) (fun u v -> Graph.add_edge g u v);
  (* Endpoint pool: each vertex appears once per incident edge, so drawing
     uniformly from the pool is degree-proportional. *)
  let pool = ref [] in
  Graph.iter_edges g (fun u v -> pool := u :: v :: !pool);
  let pool = ref (Array.of_list !pool) in
  let pool_len = ref (Array.length !pool) in
  let push x =
    if !pool_len >= Array.length !pool then begin
      let bigger = Array.make (max 16 (2 * Array.length !pool)) 0 in
      Array.blit !pool 0 bigger 0 !pool_len;
      pool := bigger
    end;
    !pool.(!pool_len) <- x;
    incr pool_len
  in
  for v = m + 1 to n - 1 do
    let attached = Hashtbl.create m in
    while Hashtbl.length attached < m do
      let u = !pool.(Prng.int rng !pool_len) in
      if u <> v && not (Hashtbl.mem attached u) then Hashtbl.add attached u ()
    done;
    Hashtbl.iter
      (fun u () ->
        Graph.add_edge g u v;
        push u;
        push v)
      attached
  done;
  g

let watts_strogatz rng ~n ~k ~beta =
  if k < 1 || 2 * k >= n then invalid_arg "Gen.watts_strogatz: need 1 <= k < n/2";
  let g = Graph.create n in
  (* Ring lattice: each vertex to its k clockwise neighbours. *)
  for v = 0 to n - 1 do
    for j = 1 to k do
      let w = (v + j) mod n in
      if not (Graph.mem_edge g v w) then Graph.add_edge g v w
    done
  done;
  (* Rewire each lattice edge (v, v+j) with probability beta, keeping the
     ring (j = 1) intact so the graph stays connected. *)
  for v = 0 to n - 1 do
    for j = 2 to k do
      let w = (v + j) mod n in
      if Graph.mem_edge g v w && Prng.bernoulli rng beta then begin
        let rec fresh () =
          let t = Prng.int rng n in
          if t = v || Graph.mem_edge g v t then fresh () else t
        in
        if Graph.degree g v < n - 1 then begin
          Graph.remove_edge g v w;
          Graph.add_edge g v (fresh ())
        end
      end
    done
  done;
  g

let connected_gnp rng ~n ~p =
  let g = gnp rng ~n ~p in
  let perm = Array.init n (fun i -> i) in
  Prng.shuffle rng perm;
  for i = 0 to n - 2 do
    if not (Graph.mem_edge g perm.(i) perm.(i + 1)) then Graph.add_edge g perm.(i) perm.(i + 1)
  done;
  g
