let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let variance a =
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let m = mean a in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a in
    acc /. float_of_int n
  end

let stddev a = sqrt (variance a)

let sorted a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let median a =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let b = sorted a in
    if n land 1 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0
  end

let median_int a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    (* Callers pass a handful of sketch rows or repetitions: insertion sort
       there beats the library sort and its per-comparison closure call. *)
    if n <= 16 then
      for i = 1 to n - 1 do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && a.(!j) > x do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done
    else Array.sort Int.compare a;
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) + a.(n / 2)) / 2
  end

let percentile a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let b = sorted a in
    let rank = q /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
    let lo = max 0 (min lo (n - 1)) and hi = max 0 (min hi (n - 1)) in
    let frac = rank -. floor rank in
    b.(lo) +. (frac *. (b.(hi) -. b.(lo)))
  end

let max_arr a = Array.fold_left max neg_infinity a

let histogram a ~bins ~lo ~hi =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  let h = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  Array.iter
    (fun x ->
      let i = int_of_float ((x -. lo) /. width) in
      let i = max 0 (min (bins - 1) i) in
      h.(i) <- h.(i) + 1)
    a;
  h

let total_variation p q =
  if Array.length p <> Array.length q then
    invalid_arg "Stats.total_variation: length mismatch";
  let norm a =
    let s = Array.fold_left ( +. ) 0.0 a in
    if s = 0.0 then a else Array.map (fun x -> x /. s) a
  in
  let p = norm p and q = norm q in
  let acc = ref 0.0 in
  Array.iteri (fun i pi -> acc := !acc +. abs_float (pi -. q.(i))) p;
  !acc /. 2.0

let chi_square_uniform counts =
  let n = Array.length counts in
  if n = 0 then 0.0
  else begin
    let total = Array.fold_left ( + ) 0 counts in
    let expected = float_of_int total /. float_of_int n in
    if expected = 0.0 then 0.0
    else
      Array.fold_left
        (fun acc c ->
          let d = float_of_int c -. expected in
          acc +. (d *. d /. expected))
        0.0 counts
  end
