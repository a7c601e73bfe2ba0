(* Streaming quantile sketch: an HDR-style sub-bucketed log histogram.

   A plain log2 histogram answers "which power-of-two bucket" —
   useless for an honest p99 (the bucket containing p99 can be 2x
   wide).  This sketch refines each octave into [subs] equal-width
   sub-buckets, so any nonnegative int sample lands in a cell whose
   width is at most [1/subs] of its magnitude.  A nearest-rank
   estimate returned as the cell midpoint is therefore within
   [1/(2*subs)] relative error (= 1/64 with sub_bits = 5), comfortably
   inside the 5% rank-error budget the tests demand at p99/p999.

   Memory is fixed: values 0..subs-1 get one exact cell each, and each
   octave [2^p, 2^(p+1)) for p in [sub_bits, 62] gets [subs] cells —
   1888 int atomics per shard, ~15 KiB.  Cells are pure counts, so a
   cell-wise sum of two sketches is exactly the sketch of the
   concatenated streams: merge = concat, deterministically.

   Concurrency mirrors [Metrics]: registered sketches shard their cell
   rows by domain id and gate observation on the global metrics
   switch; ad-hoc sketches ([make]) default to one row and no gate,
   for single-domain callers like [Loadgen] that always want the
   numbers. *)

let sub_bits = 5
let subs = 1 lsl sub_bits
let max_exp = 62

(* Octaves [2^sub_bits, 2^(sub_bits+1)) .. [2^max_exp, 2^63). *)
let octaves = max_exp - sub_bits + 1
let n_cells = subs * (octaves + 1)

(* Each shard row carries the cells plus one trailing sum slot. *)
let row_len = n_cells + 1

type t = {
  q_gated : bool;
  q_mask : int;  (* shard count - 1; 0 for single-row sketches *)
  q_rows : int Atomic.t array array;
}

let make_rows n = Array.init n (fun _ -> Array.init row_len (fun _ -> Atomic.make 0))

let make ?(gated = false) () = { q_gated = gated; q_mask = 0; q_rows = make_rows 1 }

(* --- registry, mirroring Metrics --- *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 16
let registry_lock = Mutex.create ()

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let quantile name =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some q -> q
      | None ->
          let q =
            {
              q_gated = true;
              q_mask = Metrics.shards - 1;
              q_rows = make_rows Metrics.shards;
            }
          in
          Hashtbl.add registry name q;
          q)

(* --- cell geometry --- *)

let cell_of v =
  if v < subs then if v < 0 then 0 else v
  else begin
    (* p = floor(log2 v), in [sub_bits, max_exp]. *)
    let p = ref sub_bits and x = ref (v lsr sub_bits) in
    while !x > 1 do
      incr p;
      x := !x lsr 1
    done;
    let sub = (v lsr (!p - sub_bits)) land (subs - 1) in
    ((!p - sub_bits + 1) * subs) + sub
  end

(* Midpoint of the inclusive integer range a cell covers; exact for
   the linear region and the first octave (width-1 cells). *)
let cell_mid c =
  if c < subs then float_of_int c
  else begin
    let octave = (c / subs) - 1 in
    let sub = c land (subs - 1) in
    let shift = octave in
    let lo = (subs + sub) lsl shift in
    let width = 1 lsl shift in
    float_of_int lo +. (float_of_int (width - 1) /. 2.0)
  end

(* --- observation --- *)

let observe t v =
  if (not t.q_gated) || Metrics.enabled () then begin
    let v = if v < 0 then 0 else v in
    let row =
      if t.q_mask = 0 then t.q_rows.(0)
      else t.q_rows.((Domain.self () :> int) land t.q_mask)
    in
    ignore (Atomic.fetch_and_add row.(cell_of v) 1);
    ignore (Atomic.fetch_and_add row.(n_cells) v)
  end

(* --- reading --- *)

let totals t =
  let tot = Array.make row_len 0 in
  Array.iter
    (fun row ->
      for i = 0 to row_len - 1 do
        tot.(i) <- tot.(i) + Atomic.get row.(i)
      done)
    t.q_rows;
  tot

let count_of tot =
  let n = ref 0 in
  for i = 0 to n_cells - 1 do
    n := !n + tot.(i)
  done;
  !n

let estimate_in tot ~count q =
  if count = 0 then Float.nan
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int count)) in
      if r < 1 then 1 else if r > count then count else r
    in
    let cum = ref 0 and cell = ref (-1) and i = ref 0 in
    while !cell < 0 && !i < n_cells do
      cum := !cum + tot.(!i);
      if !cum >= rank then cell := !i;
      incr i
    done;
    cell_mid (if !cell < 0 then n_cells - 1 else !cell)
  end

let count t = count_of (totals t)
let sum t = (totals t).(n_cells)

let estimate t q =
  let tot = totals t in
  estimate_in tot ~count:(count_of tot) q

type summary = {
  s_count : int;
  s_sum : int;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_p999 : float;
}

let summarize t =
  let tot = totals t in
  let count = count_of tot in
  {
    s_count = count;
    s_sum = tot.(n_cells);
    s_p50 = estimate_in tot ~count 0.5;
    s_p90 = estimate_in tot ~count 0.9;
    s_p99 = estimate_in tot ~count 0.99;
    s_p999 = estimate_in tot ~count 0.999;
  }

let reset t =
  Array.iter (fun row -> Array.iter (fun c -> Atomic.set c 0) row) t.q_rows

(* --- registry-wide views --- *)

let snapshot () =
  let items =
    with_lock (fun () -> Hashtbl.fold (fun name q acc -> (name, q) :: acc) registry [])
  in
  let items = List.map (fun (name, q) -> (name, summarize q)) items in
  List.sort (fun (a, _) (b, _) -> compare a b) items

let reset_all () =
  with_lock (fun () -> Hashtbl.iter (fun _ q -> reset q) registry)

(* --- exporters --- *)

(* An empty sketch's quantiles are NaN; both exports print them as 0. *)
let num f = if Float.is_nan f then "0" else Printf.sprintf "%.1f" f

let summary_json s =
  let open Ds_util.Json in
  let q f = Num (if Float.is_nan f then 0. else f) in
  Obj
    [
      ("count", int s.s_count);
      ("sum", int s.s_sum);
      ("p50", q s.s_p50);
      ("p90", q s.s_p90);
      ("p99", q s.s_p99);
      ("p999", q s.s_p999);
    ]

let to_json items = Ds_util.Json.Obj (List.map (fun (name, s) -> (name, summary_json s)) items)

let to_prometheus items =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, s) ->
      let n = Metrics.sanitize name in
      Printf.bprintf b "# TYPE %s summary\n" n;
      List.iter
        (fun (q, v) -> Printf.bprintf b "%s{quantile=\"%s\"} %s\n" n q (num v))
        [ ("0.5", s.s_p50); ("0.9", s.s_p90); ("0.99", s.s_p99); ("0.999", s.s_p999) ];
      Printf.bprintf b "%s_sum %d\n%s_count %d\n" n s.s_sum n s.s_count)
    items;
  Buffer.contents b
