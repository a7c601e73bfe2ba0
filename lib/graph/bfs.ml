let distances_capped g ~source ~cap =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  dist.(source) <- 0;
  let q = Queue.create () in
  Queue.add source q;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    if dist.(u) < cap then
      Graph.iter_neighbors g u (fun v ->
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v q
          end)
  done;
  dist

let distances g ~source = distances_capped g ~source ~cap:max_int
let distance g u v = (distances g ~source:u).(v)
