open Ds_graph

let run ~k g =
  if k < 1 then invalid_arg "Greedy_spanner.run: k must be >= 1";
  let n = Graph.n g in
  let t = (2 * k) - 1 in
  let spanner = Graph.create n in
  Graph.iter_edges g (fun u v ->
      let d = Bfs.distances_capped spanner ~source:u ~cap:t in
      if d.(v) > t then Graph.add_edge spanner u v);
  spanner
