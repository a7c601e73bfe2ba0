open Ds_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* -------------------- Field -------------------- *)

let test_field_basics () =
  check_int "p" 0x7fffffff Field.p;
  check_int "of_int negative" (Field.p - 1) (Field.of_int (-1));
  check_int "of_int wraps" 1 (Field.of_int (Field.p + 1));
  check_int "add wraps" 0 (Field.add (Field.p - 1) 1);
  check_int "sub wraps" (Field.p - 1) (Field.sub 0 1);
  check_int "neg zero" 0 (Field.neg 0);
  check_int "mul" 6 (Field.mul 2 3)

let test_field_inverse () =
  let rng = Prng.create 7 in
  for _ = 1 to 200 do
    let a = 1 + Prng.int rng (Field.p - 1) in
    check_int "a * inv a = 1" 1 (Field.mul a (Field.inv a))
  done;
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Field.inv 0))

let test_field_pow () =
  check_int "b^0" 1 (Field.pow 12345 0);
  check_int "b^1" 12345 (Field.pow 12345 1);
  let rng = Prng.create 11 in
  for _ = 1 to 50 do
    let b = Prng.int rng Field.p and e = Prng.int rng 1000 in
    let naive = ref 1 in
    for _ = 1 to e do
      naive := Field.mul !naive (Field.of_int b)
    done;
    check_int "pow matches naive" !naive (Field.pow b e)
  done

let test_field_fermat () =
  (* a^(p-1) = 1 for a <> 0: the field really is a field. *)
  let rng = Prng.create 13 in
  for _ = 1 to 20 do
    let a = 1 + Prng.int rng (Field.p - 1) in
    check_int "Fermat" 1 (Field.pow a (Field.p - 1))
  done

let test_scale_int () =
  check_int "negative coefficient" (Field.sub 0 10) (Field.scale_int (-2) 5);
  check_int "zero coefficient" 0 (Field.scale_int 0 12345)

(* -------------------- Prng -------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check_int "same seed, same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_split_independent () =
  let a = Prng.create 42 in
  let c1 = Prng.split a in
  let c2 = Prng.split a in
  check_bool "children differ" false (Prng.next c1 = Prng.next c2)

let test_prng_split_named () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let c1 = Prng.split_named a "x" and c2 = Prng.split_named b "x" in
  check_int "same tag, same child" (Prng.next c1) (Prng.next c2);
  let a' = Prng.create 42 in
  let d = Prng.split_named a' "y" in
  let c1' = Prng.split_named (Prng.create 42) "x" in
  check_bool "different tag, different child" false (Prng.next c1' = Prng.next d)

let test_prng_int_range () =
  let rng = Prng.create 1 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_prng_uniformity () =
  let rng = Prng.create 5 in
  let counts = Array.make 16 0 in
  let trials = 16000 in
  for _ = 1 to trials do
    let v = Prng.int rng 16 in
    counts.(v) <- counts.(v) + 1
  done;
  (* chi-square with 15 dof: 99.9th percentile is ~37.7 *)
  check_bool "chi-square sane" true (Stats.chi_square_uniform counts < 45.0)

let test_prng_geometric () =
  let rng = Prng.create 9 in
  let trials = 20000 in
  let zeros = ref 0 in
  for _ = 1 to trials do
    if Prng.geometric_level rng = 0 then incr zeros
  done;
  let frac = float_of_int !zeros /. float_of_int trials in
  check_bool "P(level 0) near 1/2" true (abs_float (frac -. 0.5) < 0.02)

let test_prng_gaussian () =
  let rng = Prng.create 3 in
  let xs = Array.init 5000 (fun _ -> Prng.gaussian rng) in
  check_bool "mean near 0" true (abs_float (Stats.mean xs) < 0.06);
  check_bool "stddev near 1" true (abs_float (Stats.stddev xs -. 1.0) < 0.06)

let test_prng_shuffle () =
  let rng = Prng.create 17 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

(* -------------------- Kwise -------------------- *)

let test_kwise_deterministic () =
  let h = Kwise.create (Prng.create 2) ~k:4 in
  check_int "stable" (Kwise.eval h 123) (Kwise.eval h 123)

let test_kwise_range () =
  let h = Kwise.create (Prng.create 2) ~k:4 in
  for x = 0 to 1000 do
    let v = Kwise.to_range h x ~bound:7 in
    check_bool "in range" true (v >= 0 && v < 7)
  done

let test_kwise_level_distribution () =
  let h = Kwise.create (Prng.create 23) ~k:8 in
  let trials = 20000 in
  let at_least_3 = ref 0 in
  for x = 0 to trials - 1 do
    if Kwise.level h x >= 3 then incr at_least_3
  done;
  let frac = float_of_int !at_least_3 /. float_of_int trials in
  check_bool "P(level >= 3) near 1/8" true (abs_float (frac -. 0.125) < 0.02)

let test_kwise_unit_uniform () =
  let h = Kwise.create (Prng.create 29) ~k:8 in
  let xs = Array.init 10000 (fun x -> Kwise.to_unit h x) in
  check_bool "mean near 1/2" true (abs_float (Stats.mean xs -. 0.5) < 0.02)

let test_kwise_large_keys () =
  (* Edge indices go up to n^2 > p; folded keys must still hash distinctly. *)
  let h = Kwise.create (Prng.create 31) ~k:4 in
  let a = Kwise.eval h ((1 lsl 40) + 5) and b = Kwise.eval h 5 in
  check_bool "high bits matter" false (a = b)

(* -------------------- Stats -------------------- *)

let test_stats_basics () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile [| 3.0; 1.0; 2.0 |] 0.0);
  Alcotest.(check (float 1e-9)) "p100" 3.0 (Stats.percentile [| 3.0; 1.0; 2.0 |] 100.0);
  Alcotest.(check (float 1e-9)) "p50" 2.0 (Stats.percentile [| 3.0; 1.0; 2.0 |] 50.0);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Stats.mean [||])

let test_stats_tv () =
  Alcotest.(check (float 1e-9)) "identical" 0.0
    (Stats.total_variation [| 1.0; 1.0 |] [| 2.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "disjoint" 1.0
    (Stats.total_variation [| 1.0; 0.0 |] [| 0.0; 1.0 |])

let test_stats_histogram () =
  let h = Stats.histogram [| 0.1; 0.2; 0.9; 1.5; -3.0 |] ~bins:2 ~lo:0.0 ~hi:1.0 in
  Alcotest.(check (array int)) "bins" [| 3; 2 |] h

(* -------------------- Wire -------------------- *)

let test_wire_int_roundtrip () =
  let values = [ 0; 1; -1; 63; -64; 1000000; -1000000; max_int / 4; -(max_int / 4) ] in
  let s = Wire.sink () in
  List.iter (Wire.write_int s) values;
  let src = Wire.source (Wire.contents s) in
  List.iter (fun v -> check_int "int roundtrip" v (Wire.read_int src)) values;
  check_int "fully consumed" 0 (Wire.remaining src)

let test_wire_array_and_tags () =
  let s = Wire.sink () in
  Wire.write_tag s "hdr";
  Wire.write_array s [| 3; -7; 0; 123456 |];
  let src = Wire.source (Wire.contents s) in
  Wire.expect_tag src "hdr";
  Alcotest.(check (array int)) "array" [| 3; -7; 0; 123456 |] (Wire.read_array src)

let test_wire_tag_mismatch () =
  let s = Wire.sink () in
  Wire.write_tag s "aaa";
  let src = Wire.source (Wire.contents s) in
  check_bool "mismatch detected" true
    (try
       Wire.expect_tag src "bbb";
       false
     with Failure _ -> true)

let test_wire_truncation () =
  let s = Wire.sink () in
  Wire.write_int s 1000000;
  let full = Wire.contents s in
  let cut = String.sub full 0 (String.length full - 1) in
  check_bool "truncation detected" true
    (try
       ignore (Wire.read_int (Wire.source cut));
       false
     with Failure _ -> true)

let test_wire_compact () =
  (* Small counters should cost ~1 byte each. *)
  let s = Wire.sink () in
  for _ = 1 to 100 do
    Wire.write_int s 0
  done;
  check_bool "zeros are 1 byte" true (String.length (Wire.contents s) = 100)

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire arrays roundtrip" ~count:200
    QCheck.(small_list int)
    (fun xs ->
      let a = Array.of_list xs in
      let s = Wire.sink () in
      Wire.write_array s a;
      let src = Wire.source (Wire.contents s) in
      Wire.read_array src = a && Wire.remaining src = 0)

(* -------------------- Space -------------------- *)

let test_space () =
  check_int "bits" 63 (Space.words_to_bits 1);
  check_bool "mib positive" true (Space.words_to_mib 1024 > 0.0)

let pp_words_str w = Format.asprintf "%a" Space.pp_words w

let test_space_pp_words () =
  Alcotest.(check string) "zero" "0 w" (pp_words_str 0);
  Alcotest.(check string) "below Kw" "999 w" (pp_words_str 999);
  Alcotest.(check string) "Kw boundary" "1.0 Kw" (pp_words_str 1000);
  Alcotest.(check string) "Mw" "2.50 Mw" (pp_words_str 2_500_000);
  Alcotest.(check string) "Gw" "3.00 Gw" (pp_words_str 3_000_000_000)

let test_space_pp_words_negative () =
  Alcotest.check_raises "negative raises"
    (Invalid_argument "Space.pp_words: negative word count (-1)") (fun () ->
      ignore (pp_words_str (-1)))

(* -------------------- Durable -------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_durable_write_atomic () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "durable-%d" (Unix.getpid ()))
  in
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let path = Filename.concat dir "state.bin" in
  check_bool "parents start missing" false (Sys.file_exists root);
  let big = String.init 1_000_000 (fun i -> Char.chr (i land 0xff)) in
  Durable.write_atomic ~path big;
  check_bool "creates missing parents" true (read_file path = big);
  Durable.write_atomic ~path "short";
  check_string "replaces existing content" "short" (read_file path);
  check_bool "leaves no .tmp" true (Sys.readdir dir = [| "state.bin" |]);
  Sys.remove path;
  Sys.rmdir dir;
  Sys.rmdir (Filename.dirname dir);
  Sys.rmdir root

let () =
  Alcotest.run "util"
    [
      ( "field",
        [
          Alcotest.test_case "basics" `Quick test_field_basics;
          Alcotest.test_case "inverse" `Quick test_field_inverse;
          Alcotest.test_case "pow" `Quick test_field_pow;
          Alcotest.test_case "fermat" `Quick test_field_fermat;
          Alcotest.test_case "scale_int" `Quick test_scale_int;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "split named" `Quick test_prng_split_named;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "geometric" `Quick test_prng_geometric;
          Alcotest.test_case "gaussian" `Quick test_prng_gaussian;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle;
        ] );
      ( "kwise",
        [
          Alcotest.test_case "deterministic" `Quick test_kwise_deterministic;
          Alcotest.test_case "range" `Quick test_kwise_range;
          Alcotest.test_case "level distribution" `Quick test_kwise_level_distribution;
          Alcotest.test_case "unit uniform" `Quick test_kwise_unit_uniform;
          Alcotest.test_case "large keys" `Quick test_kwise_large_keys;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "total variation" `Quick test_stats_tv;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ] );
      ( "wire",
        [
          Alcotest.test_case "int roundtrip" `Quick test_wire_int_roundtrip;
          Alcotest.test_case "arrays and tags" `Quick test_wire_array_and_tags;
          Alcotest.test_case "tag mismatch" `Quick test_wire_tag_mismatch;
          Alcotest.test_case "truncation" `Quick test_wire_truncation;
          Alcotest.test_case "compact zeros" `Quick test_wire_compact;
          QCheck_alcotest.to_alcotest prop_wire_roundtrip;
        ] );
      ( "space",
        [
          Alcotest.test_case "conversions" `Quick test_space;
          Alcotest.test_case "pp_words rendering" `Quick test_space_pp_words;
          Alcotest.test_case "pp_words negative" `Quick test_space_pp_words_negative;
        ] );
      ( "durable",
        [ Alcotest.test_case "write_atomic replaces, cleans up, mkdirs" `Quick test_durable_write_atomic ]
      );
    ]
