open Ds_util

let dot a b =
  if Array.length a <> Array.length b then invalid_arg "Vec.dot: length mismatch";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm a = sqrt (dot a a)
let scale c a = Array.map (fun x -> c *. x) a

let axpy a x y =
  if Array.length x <> Array.length y then invalid_arg "Vec.axpy: length mismatch";
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let add a b = Array.init (Array.length a) (fun i -> a.(i) +. b.(i))
let sub a b = Array.init (Array.length a) (fun i -> a.(i) -. b.(i))

let project_off_ones v =
  let n = Array.length v in
  if n > 0 then begin
    let mean = Array.fold_left ( +. ) 0.0 v /. float_of_int n in
    for i = 0 to n - 1 do
      v.(i) <- v.(i) -. mean
    done
  end

let random_unit rng n =
  let v = Array.init n (fun _ -> Prng.gaussian rng) in
  let len = norm v in
  if len = 0.0 then Array.init n (fun i -> if i = 0 then 1.0 else 0.0)
  else scale (1.0 /. len) v

let e n i =
  let v = Array.make n 0.0 in
  v.(i) <- 1.0;
  v
