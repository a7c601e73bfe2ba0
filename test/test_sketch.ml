open Ds_util
open Ds_sketch

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Apply an association-list vector to any update function. *)
let apply_vec update vec = List.iter (fun (i, w) -> update ~index:i ~delta:w) vec

(* A random vector with [support] distinct non-zero coordinates over [dim],
   built incrementally with inserts and partial deletes so that the final
   value is known. *)
let random_sparse_vec rng ~dim ~support =
  let chosen = Hashtbl.create support in
  while Hashtbl.length chosen < support do
    let i = Prng.int rng dim in
    if not (Hashtbl.mem chosen i) then
      Hashtbl.add chosen i (1 + Prng.int rng 5)
  done;
  Hashtbl.fold (fun i w acc -> (i, w) :: acc) chosen []

let sort_vec v = List.sort compare v

(* -------------------- One_sparse -------------------- *)

let test_one_sparse_zero () =
  let s = One_sparse.create (Prng.create 1) ~dim:100 in
  check_bool "fresh is zero" true (One_sparse.decode s = Zero)

let test_one_sparse_single () =
  let s = One_sparse.create (Prng.create 2) ~dim:100 in
  One_sparse.update s ~index:42 ~delta:3;
  (match One_sparse.decode s with
  | One (i, w) ->
      check_int "index" 42 i;
      check_int "weight" 3 w
  | Zero | Many -> Alcotest.fail "expected One");
  One_sparse.update s ~index:42 ~delta:(-3);
  check_bool "back to zero" true (One_sparse.decode s = Zero)

let test_one_sparse_index_zero () =
  let s = One_sparse.create (Prng.create 21) ~dim:100 in
  One_sparse.update s ~index:0 ~delta:7;
  match One_sparse.decode s with
  | One (i, w) ->
      check_int "index 0 recoverable" 0 i;
      check_int "weight" 7 w
  | Zero | Many -> Alcotest.fail "expected One at index 0"

let test_one_sparse_many () =
  let s = One_sparse.create (Prng.create 3) ~dim:100 in
  One_sparse.update s ~index:1 ~delta:1;
  One_sparse.update s ~index:2 ~delta:1;
  check_bool "two coordinates detected" true (One_sparse.decode s = Many)

let test_one_sparse_cancel_to_one () =
  let s = One_sparse.create (Prng.create 4) ~dim:1000 in
  One_sparse.update s ~index:10 ~delta:5;
  One_sparse.update s ~index:999 ~delta:2;
  One_sparse.update s ~index:999 ~delta:(-2);
  match One_sparse.decode s with
  | One (i, w) ->
      check_int "survivor index" 10 i;
      check_int "survivor weight" 5 w
  | Zero | Many -> Alcotest.fail "expected One after cancellation"

let test_one_sparse_linearity () =
  let rng = Prng.create 5 in
  let mk () = One_sparse.create (Prng.copy rng) ~dim:50 in
  let a = mk () and b = mk () in
  One_sparse.update a ~index:7 ~delta:2;
  One_sparse.update b ~index:7 ~delta:3;
  One_sparse.add a b;
  (match One_sparse.decode a with
  | One (i, w) ->
      check_int "merged index" 7 i;
      check_int "merged weight" 5 w
  | Zero | Many -> Alcotest.fail "expected One after merge");
  One_sparse.sub a b;
  One_sparse.sub a b;
  match One_sparse.decode a with
  | One (i, w) ->
      check_int "sub index" 7 i;
      check_int "sub weight" (-1) w
  | Zero | Many -> Alcotest.fail "expected One after sub"

let test_one_sparse_adversarial_many () =
  (* Vectors engineered so that c1/c0 lands on a valid index must still be
     rejected by the fingerprint. *)
  let fooled = ref 0 in
  for seed = 0 to 199 do
    let s = One_sparse.create (Prng.create seed) ~dim:100 in
    One_sparse.update s ~index:10 ~delta:1;
    One_sparse.update s ~index:30 ~delta:1;
    (* c0 = 2, c1 = 40 => candidate index 20, which is in range *)
    match One_sparse.decode s with One _ -> incr fooled | Zero | Many -> ()
  done;
  check_int "fingerprint never fooled" 0 !fooled

let prop_one_sparse_roundtrip =
  QCheck.Test.make ~name:"one_sparse insert+cancel leaves the survivor" ~count:200
    QCheck.(pair small_nat (small_list (pair (int_bound 99) (int_range 1 5))))
    (fun (seed, noise) ->
      let s = One_sparse.create (Prng.create seed) ~dim:200 in
      (* survivor at an index disjoint from the noise *)
      One_sparse.update s ~index:150 ~delta:9;
      List.iter (fun (i, w) -> One_sparse.update s ~index:i ~delta:w) noise;
      List.iter (fun (i, w) -> One_sparse.update s ~index:i ~delta:(-w)) noise;
      One_sparse.decode s = One (150, 9))

(* -------------------- Sparse_recovery -------------------- *)

let test_sr_empty () =
  let prm = Sparse_recovery.default_params ~sparsity:4 in
  let s = Sparse_recovery.create (Prng.create 1) ~dim:1000 ~params:prm in
  check_bool "zero" true (Sparse_recovery.is_zero s);
  match Sparse_recovery.decode s with
  | Some [] -> ()
  | Some _ | None -> Alcotest.fail "expected empty decode"

let test_sr_exact_recovery () =
  let rng = Prng.create 7 in
  let prm = Sparse_recovery.default_params ~sparsity:8 in
  for trial = 0 to 49 do
    let s = Sparse_recovery.create (Prng.create (1000 + trial)) ~dim:100000 ~params:prm in
    let vec = random_sparse_vec rng ~dim:100000 ~support:8 in
    apply_vec (Sparse_recovery.update s) vec;
    match Sparse_recovery.decode s with
    | Some assoc ->
        Alcotest.(check (list (pair int int)))
          "recovered exactly" (sort_vec vec) (sort_vec assoc)
    | None -> Alcotest.failf "decode failed on trial %d" trial
  done

let test_sr_overload_detected () =
  let rng = Prng.create 11 in
  let prm = Sparse_recovery.default_params ~sparsity:4 in
  (* With support far above budget, decode must either fail or be correct —
     never silently wrong. *)
  for trial = 0 to 19 do
    let s = Sparse_recovery.create (Prng.create (2000 + trial)) ~dim:5000 ~params:prm in
    let vec = random_sparse_vec rng ~dim:5000 ~support:100 in
    apply_vec (Sparse_recovery.update s) vec;
    match Sparse_recovery.decode s with
    | None -> ()
    | Some assoc ->
        Alcotest.(check (list (pair int int)))
          "if it decodes, it is right" (sort_vec vec) (sort_vec assoc)
  done

let test_sr_decode_any () =
  let prm = Sparse_recovery.default_params ~sparsity:4 in
  let s = Sparse_recovery.create (Prng.create 3) ~dim:1000 ~params:prm in
  Sparse_recovery.update s ~index:123 ~delta:4;
  Sparse_recovery.update s ~index:456 ~delta:2;
  (match Sparse_recovery.decode_any s with
  | Some (i, w) ->
      check_bool "member of support" true ((i, w) = (123, 4) || (i, w) = (456, 2))
  | None -> Alcotest.fail "decode_any failed on 2-sparse");
  check_bool "decode_any empty" true
    (Sparse_recovery.decode_any
       (Sparse_recovery.create (Prng.create 4) ~dim:10 ~params:prm)
    = None)

let test_sr_linearity () =
  let prm = Sparse_recovery.default_params ~sparsity:6 in
  let mk seed = Sparse_recovery.create (Prng.create seed) ~dim:10000 ~params:prm in
  let a = mk 5 and b = mk 5 in
  Sparse_recovery.update a ~index:10 ~delta:1;
  Sparse_recovery.update a ~index:20 ~delta:2;
  Sparse_recovery.update b ~index:20 ~delta:(-2);
  Sparse_recovery.update b ~index:30 ~delta:3;
  let m = Sparse_recovery.merge_many [ a; b ] in
  match Sparse_recovery.decode m with
  | Some assoc ->
      Alcotest.(check (list (pair int int)))
        "sum of vectors" [ (10, 1); (30, 3) ] (sort_vec assoc)
  | None -> Alcotest.fail "merged decode failed"

let test_sr_subtraction_reveals () =
  (* The key trick of Algorithm 3: sketch G, subtract an explicit edge set,
     decode the difference. *)
  let prm = Sparse_recovery.default_params ~sparsity:4 in
  let a = Sparse_recovery.create (Prng.create 6) ~dim:1000 ~params:prm in
  let b = Sparse_recovery.create (Prng.create 6) ~dim:1000 ~params:prm in
  for i = 0 to 99 do
    Sparse_recovery.update a ~index:i ~delta:1
  done;
  for i = 0 to 99 do
    if i <> 50 then Sparse_recovery.update b ~index:i ~delta:1
  done;
  Sparse_recovery.sub a b;
  match Sparse_recovery.decode a with
  | Some [ (50, 1) ] -> ()
  | Some _ | None -> Alcotest.fail "difference not recovered"

let prop_sr_within_budget =
  QCheck.Test.make ~name:"sparse_recovery recovers any vector within budget" ~count:100
    QCheck.(pair small_nat (int_range 0 8))
    (fun (seed, support) ->
      let rng = Prng.create (seed * 31) in
      let prm = Sparse_recovery.default_params ~sparsity:8 in
      let s = Sparse_recovery.create (Prng.create (seed + 777)) ~dim:4000 ~params:prm in
      let vec = random_sparse_vec rng ~dim:4000 ~support in
      apply_vec (Sparse_recovery.update s) vec;
      match Sparse_recovery.decode s with
      | Some assoc -> sort_vec assoc = sort_vec vec
      | None -> false)

let prop_sr_reset =
  QCheck.Test.make ~name:"reset returns to zero" ~count:50
    QCheck.(small_nat)
    (fun seed ->
      let prm = Sparse_recovery.default_params ~sparsity:4 in
      let s = Sparse_recovery.create (Prng.create seed) ~dim:500 ~params:prm in
      Sparse_recovery.update s ~index:(seed mod 500) ~delta:2;
      Sparse_recovery.reset s;
      Sparse_recovery.is_zero s)

(* -------------------- F0 -------------------- *)

let test_f0_exact_small () =
  let prm = F0.default_params in
  let s = F0.create (Prng.create 8) ~dim:10000 ~params:prm in
  check_int "empty" 0 (F0.estimate s);
  for i = 0 to 4 do
    F0.update s ~index:(i * 17) ~delta:1
  done;
  check_int "small support exact" 5 (F0.estimate s)

let test_f0_deletions () =
  let prm = F0.default_params in
  let s = F0.create (Prng.create 9) ~dim:10000 ~params:prm in
  for i = 0 to 99 do
    F0.update s ~index:i ~delta:1
  done;
  for i = 0 to 97 do
    F0.update s ~index:i ~delta:(-1)
  done;
  check_int "post-deletion support" 2 (F0.estimate s)

let test_f0_constant_factor () =
  let fails = ref 0 in
  for trial = 0 to 9 do
    let s = F0.create (Prng.create (300 + trial)) ~dim:100000 ~params:F0.default_params in
    for i = 0 to 999 do
      F0.update s ~index:(i * 97) ~delta:1
    done;
    let e = float_of_int (F0.estimate s) in
    if e < 1000.0 /. 3.0 || e > 3.0 *. 1000.0 then incr fails
  done;
  check_bool "factor-3 accuracy in >= 9/10 trials" true (!fails <= 1)

let test_f0_linearity () =
  let a = F0.create (Prng.create 10) ~dim:1000 ~params:F0.default_params in
  let b = F0.create (Prng.create 10) ~dim:1000 ~params:F0.default_params in
  F0.update a ~index:5 ~delta:1;
  F0.update b ~index:5 ~delta:(-1);
  F0.update b ~index:6 ~delta:1;
  F0.add a b;
  check_int "merged estimate" 1 (F0.estimate a)

(* -------------------- L0_sampler -------------------- *)

let test_l0_empty () =
  let s = L0_sampler.create (Prng.create 1) ~dim:100 ~params:L0_sampler.default_params in
  check_bool "empty sample" true (L0_sampler.sample s = None)

let test_l0_single () =
  let s = L0_sampler.create (Prng.create 2) ~dim:100 ~params:L0_sampler.default_params in
  L0_sampler.update s ~index:33 ~delta:2;
  match L0_sampler.sample s with
  | Some (33, 2) -> ()
  | Some _ | None -> Alcotest.fail "expected the unique element"

let test_l0_membership () =
  let rng = Prng.create 12 in
  let successes = ref 0 and wrong = ref 0 in
  let trials = 60 in
  for trial = 0 to trials - 1 do
    let s =
      L0_sampler.create (Prng.create (500 + trial)) ~dim:5000 ~params:L0_sampler.default_params
    in
    let vec = random_sparse_vec rng ~dim:5000 ~support:200 in
    apply_vec (L0_sampler.update s) vec;
    match L0_sampler.sample s with
    | Some (i, w) -> if List.mem (i, w) vec then incr successes else incr wrong
    | None -> ()
  done;
  check_int "never returns a non-member" 0 !wrong;
  check_bool "succeeds in most trials" true (!successes >= trials * 8 / 10)

let test_l0_deletion_to_empty () =
  let s = L0_sampler.create (Prng.create 13) ~dim:1000 ~params:L0_sampler.default_params in
  for i = 0 to 49 do
    L0_sampler.update s ~index:i ~delta:1
  done;
  for i = 0 to 49 do
    L0_sampler.update s ~index:i ~delta:(-1)
  done;
  check_bool "empty after full deletion" true (L0_sampler.sample s = None)

let test_l0_uniformity () =
  (* TV distance of the sampling distribution from uniform over a 16-element
     support, across fresh samplers. *)
  let support = Array.init 16 (fun i -> (i * 61) + 7) in
  let counts = Array.make 16 0 in
  let trials = 800 in
  for trial = 0 to trials - 1 do
    let s =
      L0_sampler.create (Prng.create (9000 + trial)) ~dim:1000
        ~params:L0_sampler.default_params
    in
    Array.iter (fun i -> L0_sampler.update s ~index:i ~delta:1) support;
    match L0_sampler.sample s with
    | Some (i, _) ->
        Array.iteri (fun j v -> if v = i then counts.(j) <- counts.(j) + 1) support
    | None -> ()
  done;
  let empirical = Array.map float_of_int counts in
  let uniform = Array.make 16 1.0 in
  let tv = Stats.total_variation empirical uniform in
  check_bool "TV from uniform < 0.15" true (tv < 0.15)

let test_l0_linearity () =
  let a = L0_sampler.create (Prng.create 14) ~dim:100 ~params:L0_sampler.default_params in
  let b = L0_sampler.create (Prng.create 14) ~dim:100 ~params:L0_sampler.default_params in
  L0_sampler.update a ~index:1 ~delta:1;
  L0_sampler.update b ~index:1 ~delta:(-1);
  L0_sampler.update b ~index:2 ~delta:1;
  L0_sampler.add a b;
  match L0_sampler.sample a with
  | Some (2, 1) -> ()
  | Some _ | None -> Alcotest.fail "merge should cancel index 1 and keep index 2"

(* -------------------- Count_sketch -------------------- *)

let test_count_sketch_pointwise () =
  let prm = { Count_sketch.rows = 5; cols = 512; hash_degree = 6 } in
  let s = Count_sketch.create (Prng.create 15) ~dim:10000 ~params:prm in
  Count_sketch.update s ~index:77 ~delta:1000;
  for i = 0 to 199 do
    Count_sketch.update s ~index:(100 + i) ~delta:1
  done;
  let e = Count_sketch.estimate s 77 in
  check_bool "heavy coordinate estimated well" true (abs (e - 1000) <= 30);
  Count_sketch.update s ~index:77 ~delta:(-1000);
  check_bool "deleted coordinate forgotten" true (abs (Count_sketch.estimate s 77) <= 30)

let test_count_sketch_heavy_hitters () =
  let prm = { Count_sketch.rows = 5; cols = 512; hash_degree = 6 } in
  let s = Count_sketch.create (Prng.create 16) ~dim:10000 ~params:prm in
  Count_sketch.update s ~index:7 ~delta:500;
  Count_sketch.update s ~index:9 ~delta:400;
  Count_sketch.update s ~index:11 ~delta:1;
  let candidates = [ 7; 9; 11; 13 ] in
  let hh = Count_sketch.heavy_hitters s ~candidates ~threshold:100 in
  let keys = List.map fst hh |> List.sort compare in
  Alcotest.(check (list int)) "finds exactly the heavy ones" [ 7; 9 ] keys

let test_count_sketch_rejects_out_of_range () =
  let prm = { Count_sketch.rows = 3; cols = 16; hash_degree = 4 } in
  let s = Count_sketch.create (Prng.create 17) ~dim:100 ~params:prm in
  List.iter
    (fun index ->
      Alcotest.check_raises (Printf.sprintf "update %d" index)
        (Invalid_argument "Count_sketch.update: index out of range") (fun () ->
          Count_sketch.update s ~index ~delta:1);
      Alcotest.check_raises (Printf.sprintf "estimate %d" index)
        (Invalid_argument "Count_sketch.estimate: index out of range") (fun () ->
          ignore (Count_sketch.estimate s index)))
    [ -1; 100 ];
  Count_sketch.update s ~index:99 ~delta:4;
  Alcotest.(check int) "last index still readable" 4 (Count_sketch.estimate s 99)

(* -------------------- Packed_l0 -------------------- *)

let test_packed_l0_single () =
  let cfg =
    Packed_l0.make_config (Prng.create 17) ~dim:64 ~params:Packed_l0.default_params
  in
  let st = Words.create (Packed_l0.state_len cfg) in
  Packed_l0.update cfg st ~off:0 ~index:9 ~delta:4;
  (match Packed_l0.decode cfg st ~off:0 with
  | Some (9, 4) -> ()
  | Some _ | None -> Alcotest.fail "expected unique element");
  Packed_l0.update cfg st ~off:0 ~index:9 ~delta:(-4);
  check_bool "empty after deletion" true (Packed_l0.decode cfg st ~off:0 = None)

let test_packed_l0_offset () =
  let cfg =
    Packed_l0.make_config (Prng.create 18) ~dim:64 ~params:Packed_l0.default_params
  in
  let len = Packed_l0.state_len cfg in
  let st = Words.create (3 * len) in
  Packed_l0.update cfg st ~off:len ~index:5 ~delta:1;
  check_bool "slot 0 untouched" true (Packed_l0.decode cfg st ~off:0 = None);
  check_bool "slot 2 untouched" true (Packed_l0.decode cfg st ~off:(2 * len) = None);
  match Packed_l0.decode cfg st ~off:len with
  | Some (5, 1) -> ()
  | Some _ | None -> Alcotest.fail "expected element in slot 1"

let test_packed_l0_success_rate () =
  let trials = 300 and failures = ref 0 and wrong = ref 0 in
  let rng = Prng.create 19 in
  for trial = 0 to trials - 1 do
    let cfg =
      Packed_l0.make_config
        (Prng.create (40000 + trial))
        ~dim:256 ~params:Packed_l0.default_params
    in
    let st = Words.create (Packed_l0.state_len cfg) in
    let support = 1 + Prng.int rng 40 in
    let vec = random_sparse_vec rng ~dim:256 ~support in
    List.iter (fun (i, w) -> Packed_l0.update cfg st ~off:0 ~index:i ~delta:w) vec;
    match Packed_l0.decode cfg st ~off:0 with
    | Some (i, w) -> if not (List.mem (i, w) vec) then incr wrong
    | None -> incr failures
  done;
  check_int "never wrong" 0 !wrong;
  check_bool "failure rate < 2%" true (float_of_int !failures /. float_of_int trials < 0.02)

let test_packed_l0_raw_linearity () =
  (* The property Sketch_table relies on: states add componentwise. *)
  let cfg =
    Packed_l0.make_config (Prng.create 20) ~dim:128 ~params:Packed_l0.default_params
  in
  let len = Packed_l0.state_len cfg in
  let a = Words.create len and b = Words.create len in
  Packed_l0.update cfg a ~off:0 ~index:3 ~delta:1;
  Packed_l0.update cfg b ~off:0 ~index:3 ~delta:(-1);
  Packed_l0.update cfg b ~off:0 ~index:8 ~delta:2;
  let sum = Words.copy a in
  Words.add sum b;
  match Packed_l0.decode cfg sum ~off:0 with
  | Some (8, 2) -> ()
  | Some _ | None -> Alcotest.fail "componentwise sum should decode the difference"

let test_packed_l0_rejects_out_of_range () =
  let cfg =
    Packed_l0.make_config (Prng.create 21) ~dim:64 ~params:Packed_l0.default_params
  in
  let st = Words.create (Packed_l0.state_len cfg) in
  List.iter
    (fun index ->
      Alcotest.check_raises (Printf.sprintf "update %d" index)
        (Invalid_argument "Packed_l0.prepare: index out of range") (fun () ->
          Packed_l0.update cfg st ~off:0 ~index ~delta:1);
      Alcotest.check_raises (Printf.sprintf "prepare %d" index)
        (Invalid_argument "Packed_l0.prepare: index out of range") (fun () ->
          ignore (Packed_l0.prepare cfg ~index ~delta:1)))
    [ -1; 64 ];
  check_bool "state untouched" true (Array.for_all (( = ) 0) (Words.to_array st))

(* -------------------- Sketch_table -------------------- *)

let payload_cfg seed =
  Packed_l0.make_config (Prng.create seed) ~dim:64 ~params:Packed_l0.default_params

let test_table_roundtrip () =
  let cfg = payload_cfg 100 in
  let plen = Packed_l0.state_len cfg in
  let t =
    Sketch_table.create (Prng.create 101) ~key_dim:1000 ~capacity:64 ~rows:3 ~hash_degree:6
      ~payload_len:plen
  in
  (* 20 keys, each with one payload element = its neighbour. *)
  for k = 0 to 19 do
    let key = k * 37 in
    Sketch_table.update t ~key ~weight:1 ~write:(fun arr off ->
        Packed_l0.update cfg arr ~off ~index:(k mod 64) ~delta:1)
  done;
  match Sketch_table.decode t with
  | None -> Alcotest.fail "table decode failed"
  | Some entries ->
      check_int "all keys recovered" 20 (List.length entries);
      List.iter
        (fun (key, w, payload) ->
          let k = key / 37 in
          check_int "weight" 1 w;
          match Packed_l0.decode cfg payload ~off:0 with
          | Some (i, 1) -> check_int "payload element" (k mod 64) i
          | Some _ | None -> Alcotest.fail "payload decode failed")
        entries

let test_table_deletions () =
  let cfg = payload_cfg 102 in
  let plen = Packed_l0.state_len cfg in
  let t =
    Sketch_table.create (Prng.create 103) ~key_dim:100 ~capacity:16 ~rows:3 ~hash_degree:6
      ~payload_len:plen
  in
  let upd key index delta =
    Sketch_table.update t ~key ~weight:delta ~write:(fun arr off ->
        Packed_l0.update cfg arr ~off ~index ~delta)
  in
  upd 5 1 1;
  upd 7 2 1;
  upd 5 1 (-1);
  (* key 5 fully deleted *)
  match Sketch_table.decode t with
  | Some [ (7, 1, payload) ] -> (
      match Packed_l0.decode cfg payload ~off:0 with
      | Some (2, 1) -> ()
      | Some _ | None -> Alcotest.fail "payload of surviving key wrong")
  | Some _ | None -> Alcotest.fail "expected exactly the surviving key"

let test_table_over_capacity_detected () =
  let cfg = payload_cfg 104 in
  let plen = Packed_l0.state_len cfg in
  let wrongs = ref 0 in
  for trial = 0 to 9 do
    let t =
      Sketch_table.create
        (Prng.create (200 + trial))
        ~key_dim:4000 ~capacity:8 ~rows:3 ~hash_degree:6 ~payload_len:plen
    in
    for k = 0 to 299 do
      Sketch_table.update t ~key:(k * 13) ~weight:1 ~write:(fun arr off ->
          Packed_l0.update cfg arr ~off ~index:0 ~delta:1)
    done;
    match Sketch_table.decode t with
    | None -> ()
    | Some entries -> if List.length entries <> 300 then incr wrongs
  done;
  check_int "overload never silently wrong" 0 !wrongs

let test_table_merge () =
  let cfg = payload_cfg 105 in
  let plen = Packed_l0.state_len cfg in
  let mk () =
    Sketch_table.create (Prng.create 106) ~key_dim:100 ~capacity:16 ~rows:3 ~hash_degree:6
      ~payload_len:plen
  in
  let a = mk () and b = mk () in
  Sketch_table.update a ~key:1 ~weight:1 ~write:(fun arr off ->
      Packed_l0.update cfg arr ~off ~index:10 ~delta:1);
  Sketch_table.update b ~key:2 ~weight:1 ~write:(fun arr off ->
      Packed_l0.update cfg arr ~off ~index:20 ~delta:1);
  Sketch_table.add a b;
  match Sketch_table.decode a with
  | Some entries -> check_int "two keys after merge" 2 (List.length entries)
  | None -> Alcotest.fail "merged table decode failed"

let test_table_capacity_stress () =
  (* Fill to ~60% of capacity many times; decode must always succeed. *)
  let failures = ref 0 in
  for trial = 0 to 19 do
    let t =
      Sketch_table.create
        (Prng.create (300 + trial))
        ~key_dim:10000 ~capacity:64 ~rows:3 ~hash_degree:6 ~payload_len:1
    in
    for k = 0 to 37 do
      Sketch_table.update t ~key:((k * 241) mod 10000) ~weight:1 ~write:(fun arr off ->
          Words.set arr off (Words.get arr off + 1))
    done;
    match Sketch_table.decode t with
    | Some entries when List.length entries = 38 -> ()
    | Some _ | None -> incr failures
  done;
  check_int "no failures at 60% load" 0 !failures

let table_bytes t =
  let sink = Wire.sink () in
  Sketch_table.write t sink;
  Wire.contents sink

let test_table_rejects_out_of_range () =
  let t =
    Sketch_table.create (Prng.create 107) ~key_dim:100 ~capacity:16 ~rows:3 ~hash_degree:6
      ~payload_len:2
  in
  let before = table_bytes t in
  List.iter
    (fun key ->
      Alcotest.check_raises (Printf.sprintf "update %d" key)
        (Invalid_argument "Sketch_table.update: key out of range") (fun () ->
          Sketch_table.update t ~key ~weight:1 ~write:(fun arr off ->
              Words.set arr off (Words.get arr off + 1))))
    [ -1; 100 ];
  check_bool "table untouched" true (table_bytes t = before)

(* -------------------- Ams_f2 -------------------- *)

let test_ams_exact_shape () =
  let s = Ams_f2.create (Prng.create 200) ~dim:1000 ~params:Ams_f2.default_params in
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Ams_f2.estimate s);
  Ams_f2.update s ~index:5 ~delta:3;
  (* A single coordinate is estimated exactly: every estimator is (+-3)^2. *)
  Alcotest.(check (float 1e-9)) "single coordinate" 9.0 (Ams_f2.estimate s);
  Ams_f2.update s ~index:5 ~delta:(-3);
  Alcotest.(check (float 1e-9)) "cancelled" 0.0 (Ams_f2.estimate s)

let test_ams_accuracy () =
  let trials = 20 in
  let ok = ref 0 in
  for t = 0 to trials - 1 do
    let s = Ams_f2.create (Prng.create (300 + t)) ~dim:5000 ~params:Ams_f2.default_params in
    let rng = Prng.create (400 + t) in
    let truth = ref 0.0 in
    for _ = 1 to 300 do
      let i = Prng.int rng 5000 and w = 1 + Prng.int rng 4 in
      Ams_f2.update s ~index:i ~delta:w;
      ignore w
    done;
    (* Recompute truth exactly from an explicit vector. *)
    let v = Array.make 5000 0 in
    let rng2 = Prng.create (400 + t) in
    for _ = 1 to 300 do
      let i = Prng.int rng2 5000 and w = 1 + Prng.int rng2 4 in
      v.(i) <- v.(i) + w
    done;
    Array.iter (fun x -> truth := !truth +. float_of_int (x * x)) v;
    let e = Ams_f2.estimate s in
    if e >= 0.5 *. !truth && e <= 1.5 *. !truth then incr ok
  done;
  check_bool "within 50% in >= 18/20 trials" true (!ok >= 18)

let test_ams_linearity () =
  let mk () = Ams_f2.create (Prng.create 500) ~dim:100 ~params:Ams_f2.default_params in
  let a = mk () and b = mk () in
  Ams_f2.update a ~index:1 ~delta:2;
  Ams_f2.update b ~index:1 ~delta:(-2);
  Ams_f2.update b ~index:2 ~delta:5;
  Ams_f2.add a b;
  Alcotest.(check (float 1e-9)) "merged" 25.0 (Ams_f2.estimate a)

(* -------------------- Wire serialisation -------------------- *)

let test_wire_sparse_recovery () =
  let prm = Sparse_recovery.default_params ~sparsity:6 in
  let mk () = Sparse_recovery.create (Prng.create 600) ~dim:10000 ~params:prm in
  let a = mk () in
  Sparse_recovery.update a ~index:17 ~delta:3;
  Sparse_recovery.update a ~index:4242 ~delta:(-2);
  let sink = Ds_util.Wire.sink () in
  Sparse_recovery.write a sink;
  let bytes = Ds_util.Wire.contents sink in
  (* Mostly-zero sketches serialise small: well under a byte per word. *)
  check_bool "compact" true (String.length bytes < Sparse_recovery.space_in_words a);
  let b = mk () in
  Sparse_recovery.update b ~index:999 ~delta:7 (* stale state must be overwritten *);
  Sparse_recovery.read_into b (Ds_util.Wire.source bytes);
  (match Sparse_recovery.decode b with
  | Some assoc ->
      Alcotest.(check (list (pair int int)))
        "decoded after wire" [ (17, 3); (4242, -2) ] (sort_vec assoc)
  | None -> Alcotest.fail "decode after wire failed");
  (* And the deserialised copy is still linear: subtracting a re-read copy
     of [a] empties it. *)
  Sparse_recovery.sub b a;
  check_bool "wire copy is exact" true (Sparse_recovery.is_zero b)

let test_wire_l0_roundtrip () =
  let mk () = L0_sampler.create (Prng.create 601) ~dim:500 ~params:L0_sampler.default_params in
  let a = mk () in
  L0_sampler.update a ~index:77 ~delta:2;
  let sink = Ds_util.Wire.sink () in
  L0_sampler.write a sink;
  let b = mk () in
  L0_sampler.read_into b (Ds_util.Wire.source (Ds_util.Wire.contents sink));
  match L0_sampler.sample b with
  | Some (77, 2) -> ()
  | Some _ | None -> Alcotest.fail "sample after wire roundtrip"

(* Model-based fuzz: a Sketch_table tracks a map (key -> weight) through a
   random mix of inserts and deletes. Whenever the live-key count is within
   the tested load, a decode that answers must reproduce the model exactly;
   it may decline, since recovery is only promised whp, and the decline
   rate is bounded over a fixed batch below. *)
let table_fuzz_arb = QCheck.(pair small_nat (small_list (pair (int_bound 199) bool)))

let table_fuzz_case (seed, ops) =
  let t =
    Sketch_table.create (Prng.create (seed + 4000)) ~key_dim:200 ~capacity:48 ~rows:3
      ~hash_degree:6 ~payload_len:1
  in
  let model = Hashtbl.create 16 in
  List.iter
    (fun (key, insert) ->
      let current = match Hashtbl.find_opt model key with Some w -> w | None -> 0 in
      let delta = if insert || current = 0 then 1 else -1 in
      Sketch_table.update t ~key ~weight:delta ~write:(fun arr off ->
          Words.set arr off (Words.get arr off + delta));
      let now = current + delta in
      if now = 0 then Hashtbl.remove model key else Hashtbl.replace model key now)
    ops;
  if Hashtbl.length model > 32 then `Beyond_load
  else
    match Sketch_table.decode t with
    | None -> `Declined
    | Some entries ->
        if
          List.length entries = Hashtbl.length model
          && List.for_all
               (fun (k, w, payload) -> Hashtbl.find_opt model k = Some w && Words.get payload 0 = w)
               entries
        then `Agrees
        else `Wrong

let prop_table_fuzz =
  QCheck.Test.make ~name:"sketch_table agrees with a model map under churn" ~count:60
    table_fuzz_arb (fun case -> table_fuzz_case case <> `Wrong)

let test_table_decline_rate () =
  let cases =
    QCheck.Gen.generate ~rand:(Random.State.make [| 14 |]) ~n:20_000 (QCheck.gen table_fuzz_arb)
  in
  let declined = ref 0 and wrong = ref 0 in
  List.iter
    (fun case ->
      match table_fuzz_case case with
      | `Declined -> incr declined
      | `Wrong -> incr wrong
      | `Agrees | `Beyond_load -> ())
    cases;
  check_int "never wrong" 0 !wrong;
  check_bool
    (Printf.sprintf "decline rate %d / 20000 <= 1e-3" !declined)
    true
    (float_of_int !declined /. 20_000. <= 1e-3)

(* L0 sampler fuzz: any sample must come from the model's live support. *)
let prop_l0_fuzz =
  QCheck.Test.make ~name:"l0 sample always in the live support" ~count:80
    QCheck.(pair small_nat (small_list (int_bound 99)))
    (fun (seed, keys) ->
      let s =
        L0_sampler.create (Prng.create (seed + 5000)) ~dim:100 ~params:L0_sampler.default_params
      in
      let model = Hashtbl.create 16 in
      List.iter
        (fun k ->
          let current = match Hashtbl.find_opt model k with Some w -> w | None -> 0 in
          (* alternate insert/delete per key *)
          let delta = if current > 0 then -1 else 1 in
          L0_sampler.update s ~index:k ~delta;
          let now = current + delta in
          if now = 0 then Hashtbl.remove model k else Hashtbl.replace model k now)
        keys;
      match L0_sampler.sample s with
      | None -> true
      | Some (i, w) -> Hashtbl.find_opt model i = Some w)

(* -------------------- Reference kernels -------------------- *)

(* Test-local transcriptions of the Packed_l0 update and decoder and the
   Sketch_table decoder as they stood before the prepared update path,
   in-place grid peeling and key-only table peeling: the update
   re-evaluates every hash per level and row, the Packed_l0 decoder peels
   an int-array copy of each grid and rehashes a candidate for every check
   and peel, and the table decoder peels a full copy of the table, payloads
   included. Their hash functions are rebuilt from the seed in the order
   the library draws them, so the properties below pin that order too. *)
module Ref = struct
  type pl0 = {
    dim : int;
    reps : int;
    levels : int;
    buckets : int;
    base : int;
    level_hashes : Kwise.t array;
    bucket_hashes : Kwise.t array array;
    tie_break : Kwise.t;
  }

  let pl0 seed ~dim ~(params : Packed_l0.params) =
    let rng = Prng.create seed in
    let k = params.hash_degree in
    let tie_break = Kwise.create (Prng.split_named rng "tiebreak") ~k in
    let bucket_hashes =
      Array.init params.reps (fun r ->
          Array.init 2 (fun q ->
              Kwise.create (Prng.split_named rng (Printf.sprintf "bkt%d.%d" r q)) ~k))
    in
    let level_hashes =
      Array.init params.reps (fun r ->
          Kwise.create (Prng.split_named rng (Printf.sprintf "lvl%d" r)) ~k)
    in
    let base = 2 + Prng.int rng (Field.p - 2) in
    {
      dim;
      reps = params.reps;
      levels = F0.levels_for dim;
      buckets = max 2 (2 * params.sparsity);
      base;
      level_hashes;
      bucket_hashes;
      tie_break;
    }

  let pl0_update c st ~off ~index ~delta =
    let fp = delta * Field.pow c.base (index + 1) in
    let level_words = 2 * c.buckets * 3 in
    for rep = 0 to c.reps - 1 do
      let lvl = min (Kwise.level c.level_hashes.(rep) index) (c.levels - 1) in
      for level = 0 to lvl do
        for row = 0 to 1 do
          let bucket = Kwise.to_range c.bucket_hashes.(rep).(row) index ~bound:c.buckets in
          let o =
            off + (rep * c.levels * level_words) + (level * level_words)
            + (((row * c.buckets) + bucket) * 3)
          in
          Words.set st o (Words.get st o + delta);
          Words.set st (o + 1) (Words.get st (o + 1) + (delta * index));
          Words.set st (o + 2) (Words.get st (o + 2) + fp)
        done
      done
    done

  let pl0_decode_level c st ~off ~rep ~level =
    let level_words = 2 * c.buckets * 3 in
    let pos = off + (rep * c.levels * level_words) + (level * level_words) in
    let scratch = Array.init level_words (fun o -> Words.get st (pos + o)) in
    let cell row bucket = ((row * c.buckets) + bucket) * 3 in
    let decode_cell o =
      let c0 = scratch.(o) and c1 = scratch.(o + 1) and c2 = scratch.(o + 2) in
      if c0 = 0 && c1 = 0 && Field.of_int c2 = 0 then `Zero
      else if c0 = 0 || c1 mod c0 <> 0 then `Many
      else
        let i = c1 / c0 in
        if i < 0 || i >= c.dim then `Many
        else if Field.of_int (c0 * Field.pow c.base (i + 1)) = Field.of_int c2 then `One (i, c0)
        else `Many
    in
    let acc = ref [] and progress = ref true in
    while !progress do
      progress := false;
      for row = 0 to 1 do
        for bucket = 0 to c.buckets - 1 do
          match decode_cell (cell row bucket) with
          | `One (i, w) when Kwise.to_range c.bucket_hashes.(rep).(row) i ~bound:c.buckets = bucket
            ->
              acc := (i, w) :: !acc;
              let fp = w * Field.pow c.base (i + 1) in
              for row' = 0 to 1 do
                let o = cell row' (Kwise.to_range c.bucket_hashes.(rep).(row') i ~bound:c.buckets) in
                scratch.(o) <- scratch.(o) - w;
                scratch.(o + 1) <- scratch.(o + 1) - (w * i);
                scratch.(o + 2) <- scratch.(o + 2) - fp
              done;
              progress := true
          | `Zero | `One _ | `Many -> ()
        done
      done
    done;
    let cleared = ref true in
    Array.iteri
      (fun o v -> if (if o mod 3 = 2 then Field.of_int v else v) <> 0 then cleared := false)
      scratch;
    if !cleared then Some !acc else None

  let pl0_decode c st ~off =
    let pick assoc =
      List.fold_left
        (fun best (i, w) ->
          let h = Kwise.eval c.tie_break i in
          match best with Some (h0, _, _) when h0 <= h -> best | _ -> Some (h, i, w))
        None assoc
      |> Option.map (fun (_, i, w) -> (i, w))
    in
    let rec per_rep rep =
      if rep >= c.reps then None
      else
        let rec per_level level =
          if level < 0 then None
          else
            match pl0_decode_level c st ~off ~rep ~level with
            | Some [] -> per_level (level - 1)
            | Some assoc -> pick assoc
            | None -> None
        in
        match per_level (c.levels - 1) with Some _ as r -> r | None -> per_rep (rep + 1)
    in
    per_rep 0

  type table = {
    key_dim : int;
    cap : int;
    rows : int;
    plen : int;
    hashes : Kwise.t array;
    tbase : int;
  }

  let table seed ~key_dim ~capacity ~rows ~hash_degree ~payload_len =
    let rng = Prng.create seed in
    let tbase = 2 + Prng.int rng (Field.p - 2) in
    let hashes =
      Array.init rows (fun r ->
          Kwise.create (Prng.split_named rng (Printf.sprintf "row%d" r)) ~k:hash_degree)
    in
    { key_dim; cap = capacity; rows; plen = payload_len; hashes; tbase }

  (* The table's counters in its own layout (kc, ks, kf, payload per row),
     read back through the wire form. *)
  let words t tbl =
    let src = Wire.source (table_bytes tbl) in
    Wire.expect_tag src "stb";
    ignore (Wire.read_int src);
    let parts = ref [] in
    for _ = 1 to 4 * t.rows do
      parts := Wire.read_array src :: !parts
    done;
    Array.concat (List.rev !parts)

  let decode t words =
    let rw = t.cap * (3 + t.plen) in
    let kc r c = (r * rw) + c and ks r c = (r * rw) + t.cap + c in
    let kf r c = (r * rw) + (2 * t.cap) + c and po r c = (r * rw) + (3 * t.cap) + (c * t.plen) in
    let s = Array.copy words in
    let cell r c =
      let c0 = s.(kc r c) and c1 = s.(ks r c) and c2 = s.(kf r c) in
      if c0 = 0 && c1 = 0 && Field.of_int c2 = 0 then
        if Array.for_all (( = ) 0) (Array.sub s (po r c) t.plen) then `Zero else `Many
      else if c0 = 0 || c1 mod c0 <> 0 then `Many
      else
        let k = c1 / c0 in
        if k < 0 || k >= t.key_dim then `Many
        else if Field.of_int (c0 * Field.pow t.tbase (k + 1)) = Field.of_int c2 then `One (k, c0)
        else `Many
    in
    let results = ref [] and progress = ref true in
    while !progress do
      progress := false;
      for r = 0 to t.rows - 1 do
        for c = 0 to t.cap - 1 do
          match cell r c with
          | `One (k, w) when Kwise.to_range t.hashes.(r) k ~bound:t.cap = c ->
              let pl = Array.sub s (po r c) t.plen in
              results := (k, w, pl) :: !results;
              let fp = w * Field.pow t.tbase (k + 1) in
              for r' = 0 to t.rows - 1 do
                let c' = Kwise.to_range t.hashes.(r') k ~bound:t.cap in
                s.(kc r' c') <- s.(kc r' c') - w;
                s.(ks r' c') <- s.(ks r' c') - (w * k);
                s.(kf r' c') <- s.(kf r' c') - fp;
                Array.iteri (fun i v -> s.(po r' c' + i) <- s.(po r' c' + i) - v) pl
              done;
              progress := true
          | `Zero | `One _ | `Many -> ()
        done
      done
    done;
    let cleared = ref true in
    for r = 0 to t.rows - 1 do
      for c = 0 to t.cap - 1 do
        if cell r c <> `Zero then cleared := false
      done
    done;
    if !cleared then Some !results else None
end

(* Prepared updates, one prepare applied at several windows (and the
   one-shot [update] at the first), leave the reference's exact words. *)
let prop_packed_l0_matches_reference =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* dim = int_range 1 600 in
      let* reps = int_range 1 3 in
      let* sparsity = int_range 1 4 in
      let* hash_degree = oneofl [ 2; 4; 6; 8 ] in
      let* windows = int_range 1 4 in
      let op = triple (int_bound (dim - 1)) (int_range (-5) 5) (int_bound ((1 lsl windows) - 1)) in
      let* ops = list_size (int_range 0 40) op in
      return (seed, dim, { Packed_l0.reps; sparsity; hash_degree }, windows, ops))
  in
  QCheck.Test.make ~name:"packed_l0 prepared updates match the per-level reference" ~count:300
    (QCheck.make gen) (fun (seed, dim, params, windows, ops) ->
      let cfg = Packed_l0.make_config (Prng.create seed) ~dim ~params in
      let r = Ref.pl0 seed ~dim ~params in
      let len = Packed_l0.state_len cfg in
      (* A leading pad puts every window at an offset that is not a
         multiple of the state length. *)
      let off w = 5 + (w * len) in
      let got = Words.create (off windows) and want = Words.create (off windows) in
      List.iter
        (fun (index, delta, mask) ->
          let p = Packed_l0.prepare cfg ~index ~delta in
          for w = 0 to windows - 1 do
            if mask land (1 lsl w) <> 0 then begin
              if w = 0 then Packed_l0.update cfg got ~off:(off w) ~index ~delta
              else Packed_l0.update_prepared cfg p got ~off:(off w);
              Ref.pl0_update r want ~off:(off w) ~index ~delta
            end
          done)
        ops;
      Words.to_array got = Words.to_array want)

(* In-place grid peeling returns the copy-based decoder's exact answer,
   [None] alike, and leaves the state untouched. Supports run to several
   times [2 * sparsity] so that grids fail to clear, and a stray word in
   some cases leaves garbage for the cell checks. *)
let prop_packed_l0_decode_matches_reference =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* dim = int_range 1 600 in
      let* reps = int_range 1 3 in
      let* sparsity = int_range 1 4 in
      let* hash_degree = oneofl [ 2; 6 ] in
      let* support = int_range 0 (8 * sparsity) in
      let* ops = list_repeat support (pair (int_bound (dim - 1)) (int_range (-3) 3)) in
      let* stray = opt (pair nat (int_range (-3) 3)) in
      return (seed, dim, { Packed_l0.reps; sparsity; hash_degree }, ops, stray))
  in
  QCheck.Test.make ~name:"packed_l0 decode matches the copy-and-peel reference" ~count:1000
    (QCheck.make gen) (fun (seed, dim, params, ops, stray) ->
      let cfg = Packed_l0.make_config (Prng.create seed) ~dim ~params in
      let r = Ref.pl0 seed ~dim ~params in
      let len = Packed_l0.state_len cfg in
      let off = 3 in
      let st = Words.create (off + len) in
      List.iter (fun (index, delta) -> Packed_l0.update cfg st ~off ~index ~delta) ops;
      Option.iter
        (fun (pos, v) ->
          let o = off + (pos mod len) in
          Words.set st o (Words.get st o + v))
        stray;
      let before = Words.to_array st in
      Packed_l0.decode cfg st ~off = Ref.pl0_decode r st ~off && Words.to_array st = before)

(* Key-only peeling with in-place payload reads returns the reference's
   exact answer — [None] alike, or the same (key, weight, payload) list in
   the same order — and leaves the table's words untouched. *)
let prop_table_decode_matches_reference =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* rows = int_range 1 4 in
      let* cap = int_range 4 64 in
      let* key_dim = int_range 1 500 in
      let* hash_degree = oneofl [ 2; 6 ] in
      let* packed = bool in
      let* plen = int_range 0 3 in
      (* Half the cases stay near capacity, half may run well over it. *)
      let* n = oneof [ int_range 0 cap; int_range 0 (3 * cap) ] in
      let op = triple (int_bound (key_dim - 1)) (int_bound 63) (int_range (-3) 3) in
      let* ops = list_repeat n op in
      return (seed, rows, cap, key_dim, hash_degree, packed, plen, ops))
  in
  QCheck.Test.make ~name:"sketch_table decode matches the copy-and-peel reference" ~count:400
    (QCheck.make gen) (fun (seed, rows, cap, key_dim, hash_degree, packed, plen, ops) ->
      let pcfg =
        Packed_l0.make_config (Prng.create (seed + 1)) ~dim:64 ~params:Packed_l0.default_params
      in
      let payload_len = if packed then Packed_l0.state_len pcfg else plen in
      let t =
        Sketch_table.create (Prng.create seed) ~key_dim ~capacity:cap ~rows ~hash_degree
          ~payload_len
      in
      let r = Ref.table seed ~key_dim ~capacity:cap ~rows ~hash_degree ~payload_len in
      List.iter
        (fun (key, index, weight) ->
          let write =
            if packed then
              let p = Packed_l0.prepare pcfg ~index ~delta:weight in
              fun arr off -> Packed_l0.update_prepared pcfg p arr ~off
            else fun arr off ->
              for i = 0 to payload_len - 1 do
                Words.set arr (off + i) (Words.get arr (off + i) + (weight * (index + i + 1)))
              done
          in
          Sketch_table.update t ~key ~weight ~write)
        ops;
      let before = Ref.words r t in
      let same =
        match (Sketch_table.decode t, Ref.decode r before) with
        | None, None -> true
        | Some got, Some want ->
            List.length got = List.length want
            && List.for_all2
                 (fun (k, w, pl) (k', w', pl') -> k = k' && w = w' && Words.to_array pl = pl')
                 got want
        | Some _, None | None, Some _ -> false
      in
      same && Ref.words r t = before)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_one_sparse_roundtrip;
      prop_sr_within_budget;
      prop_sr_reset;
      prop_table_fuzz;
      prop_l0_fuzz;
      prop_packed_l0_matches_reference;
      prop_packed_l0_decode_matches_reference;
      prop_table_decode_matches_reference;
    ]

let () =
  Alcotest.run "sketch"
    [
      ( "one_sparse",
        [
          Alcotest.test_case "zero" `Quick test_one_sparse_zero;
          Alcotest.test_case "single" `Quick test_one_sparse_single;
          Alcotest.test_case "index zero" `Quick test_one_sparse_index_zero;
          Alcotest.test_case "many" `Quick test_one_sparse_many;
          Alcotest.test_case "cancel to one" `Quick test_one_sparse_cancel_to_one;
          Alcotest.test_case "linearity" `Quick test_one_sparse_linearity;
          Alcotest.test_case "adversarial many" `Quick test_one_sparse_adversarial_many;
        ] );
      ( "sparse_recovery",
        [
          Alcotest.test_case "empty" `Quick test_sr_empty;
          Alcotest.test_case "exact recovery" `Quick test_sr_exact_recovery;
          Alcotest.test_case "overload detected" `Quick test_sr_overload_detected;
          Alcotest.test_case "decode_any" `Quick test_sr_decode_any;
          Alcotest.test_case "linearity" `Quick test_sr_linearity;
          Alcotest.test_case "subtraction reveals" `Quick test_sr_subtraction_reveals;
        ] );
      ( "f0",
        [
          Alcotest.test_case "exact small" `Quick test_f0_exact_small;
          Alcotest.test_case "deletions" `Quick test_f0_deletions;
          Alcotest.test_case "constant factor" `Quick test_f0_constant_factor;
          Alcotest.test_case "linearity" `Quick test_f0_linearity;
        ] );
      ( "l0_sampler",
        [
          Alcotest.test_case "empty" `Quick test_l0_empty;
          Alcotest.test_case "single" `Quick test_l0_single;
          Alcotest.test_case "membership" `Quick test_l0_membership;
          Alcotest.test_case "deletion to empty" `Quick test_l0_deletion_to_empty;
          Alcotest.test_case "uniformity" `Slow test_l0_uniformity;
          Alcotest.test_case "linearity" `Quick test_l0_linearity;
        ] );
      ( "count_sketch",
        [
          Alcotest.test_case "pointwise" `Quick test_count_sketch_pointwise;
          Alcotest.test_case "heavy hitters" `Quick test_count_sketch_heavy_hitters;
          Alcotest.test_case "rejects out-of-range index" `Quick
            test_count_sketch_rejects_out_of_range;
        ] );
      ( "packed_l0",
        [
          Alcotest.test_case "single" `Quick test_packed_l0_single;
          Alcotest.test_case "offset" `Quick test_packed_l0_offset;
          Alcotest.test_case "success rate" `Slow test_packed_l0_success_rate;
          Alcotest.test_case "raw linearity" `Quick test_packed_l0_raw_linearity;
          Alcotest.test_case "rejects out-of-range index" `Quick
            test_packed_l0_rejects_out_of_range;
        ] );
      ( "wire",
        [
          Alcotest.test_case "sparse recovery roundtrip" `Quick test_wire_sparse_recovery;
          Alcotest.test_case "l0 roundtrip" `Quick test_wire_l0_roundtrip;
        ] );
      ( "ams_f2",
        [
          Alcotest.test_case "exact shapes" `Quick test_ams_exact_shape;
          Alcotest.test_case "accuracy" `Quick test_ams_accuracy;
          Alcotest.test_case "linearity" `Quick test_ams_linearity;
        ] );
      ( "sketch_table",
        [
          Alcotest.test_case "roundtrip" `Quick test_table_roundtrip;
          Alcotest.test_case "deletions" `Quick test_table_deletions;
          Alcotest.test_case "over capacity detected" `Quick test_table_over_capacity_detected;
          Alcotest.test_case "merge" `Quick test_table_merge;
          Alcotest.test_case "capacity stress" `Quick test_table_capacity_stress;
          Alcotest.test_case "rejects out-of-range key" `Quick test_table_rejects_out_of_range;
          Alcotest.test_case "decline rate" `Quick test_table_decline_rate;
        ] );
      ("properties", qcheck_cases);
    ]
