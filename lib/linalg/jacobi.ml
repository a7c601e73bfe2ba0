type eig = { values : float array; vectors : Matrix.t }

let max_sweeps = 100

(* The off-diagonal mass, relative to the Frobenius norm, at which the
   sweeps stop. *)
let tol = 1e-12

let decompose m =
  if not (Matrix.is_symmetric ~tol:1e-8 m) then
    invalid_arg "Jacobi.decompose: matrix not symmetric";
  let n = Matrix.dim m in
  let a = Matrix.copy m in
  let v = Matrix.identity n in
  let scale = max (Matrix.frobenius m) 1e-30 in
  let sweeps = ref 0 in
  while Matrix.max_abs_off_diagonal a > tol *. scale && !sweeps < max_sweeps do
    incr sweeps;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let apq = Matrix.get a p q in
        if abs_float apq > tol *. scale /. float_of_int (n * n) then begin
          let app = Matrix.get a p p and aqq = Matrix.get a q q in
          let theta = (aqq -. app) /. (2.0 *. apq) in
          let t =
            let s = if theta >= 0.0 then 1.0 else -1.0 in
            s /. (abs_float theta +. sqrt ((theta *. theta) +. 1.0))
          in
          let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
          let s = t *. c in
          (* Rotate rows/columns p and q of a. *)
          for k = 0 to n - 1 do
            let akp = Matrix.get a k p and akq = Matrix.get a k q in
            Matrix.set a k p ((c *. akp) -. (s *. akq));
            Matrix.set a k q ((s *. akp) +. (c *. akq))
          done;
          for k = 0 to n - 1 do
            let apk = Matrix.get a p k and aqk = Matrix.get a q k in
            Matrix.set a p k ((c *. apk) -. (s *. aqk));
            Matrix.set a q k ((s *. apk) +. (c *. aqk))
          done;
          for k = 0 to n - 1 do
            let vkp = Matrix.get v k p and vkq = Matrix.get v k q in
            Matrix.set v k p ((c *. vkp) -. (s *. vkq));
            Matrix.set v k q ((s *. vkp) +. (c *. vkq))
          done
        end
      done
    done
  done;
  (* Sort ascending by eigenvalue, permuting eigenvector columns. *)
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare (Matrix.get a i i) (Matrix.get a j j)) idx;
  let values = Array.map (fun i -> Matrix.get a i i) idx in
  let vectors = Matrix.create n in
  Array.iteri
    (fun j src ->
      for i = 0 to n - 1 do
        Matrix.set vectors i j (Matrix.get v i src)
      done)
    idx;
  { values; vectors }

let eigenvalues m = (decompose m).values
