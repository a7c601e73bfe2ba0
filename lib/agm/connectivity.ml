open Ds_graph

type t = { n : int; sketch : Agm_sketch.t }
type answers = { label : int array; count : int }

let create rng ~n ~params = { n; sketch = Agm_sketch.create rng ~n ~params }
let update t ~u ~v ~delta = Agm_sketch.update t.sketch ~u ~v ~delta
let update_batch t updates = Agm_sketch.update_batch t.sketch updates
let clone_zero t = { t with sketch = Agm_sketch.clone_zero t.sketch }
let absorb t shard = Agm_sketch.add t.sketch shard.sketch
let add = absorb
let sub t s = Agm_sketch.sub t.sketch s.sketch
let reset t = Agm_sketch.reset t.sketch

let freeze t =
  let uf = Union_find.create t.n in
  List.iter
    (fun (u, v) -> ignore (Union_find.union uf u v))
    (Agm_sketch.spanning_forest t.sketch);
  (* Canonical labels: smallest member id per class. *)
  let label = Array.make t.n max_int in
  for v = 0 to t.n - 1 do
    let r = Union_find.find uf v in
    if v < label.(r) then label.(r) <- v
  done;
  let final = Array.init t.n (fun v -> label.(Union_find.find uf v)) in
  { label = final; count = Union_find.num_classes uf }

let components a = a.count
let connected a u v = a.label.(u) = a.label.(v)
let component_of a v = a.label.(v)
let space_in_words t = Agm_sketch.space_in_words t.sketch

module Linear = struct
  type nonrec t = t

  let family = "connectivity"
  let dim t = Agm_sketch.Linear.dim t.sketch
  let shape t = Agm_sketch.Linear.shape t.sketch
  let clone_zero = clone_zero
  let add = add
  let sub = sub
  let update t ~index ~delta = Agm_sketch.Linear.update t.sketch ~index ~delta
  let reset = reset
  let space_in_words = space_in_words
  let write_body t sink = Agm_sketch.write t.sketch sink
  let read_body t src = Agm_sketch.read_into t.sketch src
end
