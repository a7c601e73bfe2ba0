open Ds_graph

type t = {
  spanner : Graph.t;
  stretch : float;
  space_words : int;
  cache : (int, float array) Hashtbl.t; (* source -> distances *)
}

let of_stream rng ~n ~k stream =
  let r = Two_pass_spanner.run rng ~n ~params:(Two_pass_spanner.default_params ~k) stream in
  {
    spanner = r.Two_pass_spanner.spanner;
    stretch = float_of_int (1 lsl k);
    space_words = r.Two_pass_spanner.space_words;
    cache = Hashtbl.create 16;
  }

let distances_from t source =
  match Hashtbl.find_opt t.cache source with
  | Some d -> d
  | None ->
      let d =
        Array.map
          (fun x -> if x = max_int then infinity else float_of_int x)
          (Bfs.distances t.spanner ~source)
      in
      Hashtbl.replace t.cache source d;
      d

let query t u v = (distances_from t u).(v)
let stretch t = t.stretch
let spanner_edges t = Graph.num_edges t.spanner
let space_words t = t.space_words
