type t = { n : int; a : float array }

let create n =
  if n < 1 then invalid_arg "Matrix.create: order must be positive";
  { n; a = Array.make (n * n) 0.0 }

let dim t = t.n
let get t i j = t.a.((i * t.n) + j)
let set t i j v = t.a.((i * t.n) + j) <- v
let add_to t i j v = t.a.((i * t.n) + j) <- t.a.((i * t.n) + j) +. v

let of_rows rows =
  let n = Array.length rows in
  let t = create n in
  Array.iteri
    (fun i row ->
      if Array.length row <> n then invalid_arg "Matrix.of_rows: not square";
      Array.iteri (fun j v -> set t i j v) row)
    rows;
  t

let identity n =
  let t = create n in
  for i = 0 to n - 1 do
    set t i i 1.0
  done;
  t

let copy t = { t with a = Array.copy t.a }

let transpose t =
  let r = create t.n in
  for i = 0 to t.n - 1 do
    for j = 0 to t.n - 1 do
      set r j i (get t i j)
    done
  done;
  r

let mul x y =
  if x.n <> y.n then invalid_arg "Matrix.mul: size mismatch";
  let r = create x.n in
  for i = 0 to x.n - 1 do
    for k = 0 to x.n - 1 do
      let xik = get x i k in
      if xik <> 0.0 then
        for j = 0 to x.n - 1 do
          add_to r i j (xik *. get y k j)
        done
    done
  done;
  r

let mul_vec t v =
  if Array.length v <> t.n then invalid_arg "Matrix.mul_vec: size mismatch";
  Array.init t.n (fun i ->
      let acc = ref 0.0 in
      for j = 0 to t.n - 1 do
        acc := !acc +. (get t i j *. v.(j))
      done;
      !acc)

let scale c t = { t with a = Array.map (fun x -> c *. x) t.a }

let zip f x y =
  if x.n <> y.n then invalid_arg "Matrix: size mismatch";
  { x with a = Array.init (Array.length x.a) (fun i -> f x.a.(i) y.a.(i)) }

let add = zip ( +. )
let sub = zip ( -. )
let frobenius t = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 t.a)

let max_abs_off_diagonal t =
  let m = ref 0.0 in
  for i = 0 to t.n - 1 do
    for j = 0 to t.n - 1 do
      if i <> j then m := max !m (abs_float (get t i j))
    done
  done;
  !m

let is_symmetric ?(tol = 1e-9) t =
  let ok = ref true in
  for i = 0 to t.n - 1 do
    for j = i + 1 to t.n - 1 do
      if abs_float (get t i j -. get t j i) > tol then ok := false
    done
  done;
  !ok
