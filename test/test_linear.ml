(* The linear-sketch interface: wire round-trips, merge-after-deserialize,
   and corruption fuzzing, uniformly over every registered sketch family. *)

open Ds_util
open Ds_sketch

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

module LS = Linear_sketch
module P = LS.Packed

(* ------------------------------------------------------------------ *)
(* The family registry lives in Linear_families (shared with the golden
   fixture generator); here it is consumed both packed (uniform wire
   checks) and typed (kernel-level merge properties, incl. aliasing). *)
(* ------------------------------------------------------------------ *)

let makers : (string * (unit -> P.t)) list =
  List.map
    (fun f -> (Linear_families.name f, fun () -> Linear_families.pack f))
    Linear_families.all

let maker name = List.assoc name makers

(* A deterministic pseudo-random update vector over the packed sketch's own
   index space, parameterised by a QCheck-supplied seed. *)
let apply_random_updates ?(count = 30) seed packed =
  let rng = Prng.create (0x5EED + seed) in
  let dim = P.dim packed in
  for _ = 1 to count do
    P.update packed ~index:(Prng.int rng dim) ~delta:(if Prng.bool rng then 2 else -1)
  done

(* ------------------------------------------------------------------ *)
(* Deterministic per-family checks                                     *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_bytes name () =
  let make = maker name in
  let a = make () in
  apply_random_updates 7 a;
  let msg = P.serialize a in
  let b = make () in
  P.deserialize_into b msg;
  check_string "reserialization is byte-identical" msg (P.serialize b)

let test_absorb_equals_inprocess name () =
  let make = maker name in
  (* b receives vec1 locally and vec2 over the wire; d receives both
     locally. Linearity says their counters coincide exactly. *)
  let b = make () and c = make () and d = make () in
  apply_random_updates 21 b;
  apply_random_updates 22 c;
  apply_random_updates 21 d;
  apply_random_updates 22 d;
  P.absorb b (P.serialize c);
  check_string "add-after-deserialize = in-process add" (P.serialize d) (P.serialize b)

let test_clone_zero_is_zero name () =
  let make = maker name in
  let a = make () in
  apply_random_updates 3 a;
  let z = P.clone_zero a in
  check_string "clone_zero serializes like a fresh sketch" (P.serialize (make ()))
    (P.serialize z)

(* A replica is one buffer allocation whatever the nesting: cloning an
   AGM sketch (copies x n samplers x levels x cells) must not build a
   record per child.  256 words covers the few records and Bigarray
   headers of a family made of several AGM sketches (mst).  The count is
   minor words plus the words of blocks too large for the minor heap,
   which go straight to the major heap (promoted words cancel out), so
   one large boxed array per replica counts as well. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let test_clone_zero_allocation name () =
  let (Linear_families.F f) = Linear_families.find name in
  let (module L) = f.impl in
  let t = f.make () in
  let before = allocated_words () in
  let z = L.clone_zero t in
  let words = allocated_words () -. before in
  ignore (Sys.opaque_identity z);
  if words > 256.0 then
    Alcotest.failf "%s: clone_zero allocated %.0f heap words (limit 256)" name words

let test_family_stamped name () =
  let a = (maker name) () in
  check_string "family name" name (P.family a);
  let msg = P.serialize a in
  check_bool "message mentions magic" true
    (String.length msg > 4 && String.sub msg 1 4 = "LSK1")

let fails_with_failure f =
  match f () with
  | exception Failure _ -> true
  | exception _ -> false
  | _ -> false

let test_truncation_detected name () =
  let make = maker name in
  let a = make () in
  apply_random_updates 11 a;
  let msg = P.serialize a in
  (* Every strict prefix must be rejected. Scan a spread of cut points
     including the boundary cases. *)
  let len = String.length msg in
  List.iter
    (fun cut ->
      let cut = min cut (len - 1) in
      let b = make () in
      check_bool
        (Printf.sprintf "truncation at %d detected" cut)
        true
        (fails_with_failure (fun () -> P.deserialize_into b (String.sub msg 0 cut))))
    [ 0; 1; 4; len / 2; len - 9; len - 1 ]

let test_bitflip_detected name () =
  let make = maker name in
  let a = make () in
  apply_random_updates 13 a;
  let msg = P.serialize a in
  let rng = Prng.create 999 in
  for _ = 1 to 20 do
    let pos = Prng.int rng (String.length msg) in
    let bit = Prng.int rng 8 in
    let corrupted = Bytes.of_string msg in
    Bytes.set corrupted pos (Char.chr (Char.code msg.[pos] lxor (1 lsl bit)));
    let b = make () in
    check_bool
      (Printf.sprintf "bit flip at %d.%d detected" pos bit)
      true
      (fails_with_failure (fun () -> P.deserialize_into b (Bytes.to_string corrupted)))
  done

let test_cross_family_rejected () =
  (* Every family's message must be rejected by every other family's
     reader: the family tag (or earlier, the checksum position) differs. *)
  List.iter
    (fun (sender, make_sender) ->
      let msg = P.serialize (make_sender ()) in
      List.iter
        (fun (receiver, make_receiver) ->
          if sender <> receiver then
            check_bool
              (Printf.sprintf "%s message rejected by %s" sender receiver)
              true
              (fails_with_failure (fun () -> P.deserialize_into (make_receiver ()) msg)))
        makers)
    makers

let test_wrong_shape_rejected () =
  (* Same family, different structural parameters: the shape header must
     catch it. *)
  let small = One_sparse.create (Prng.create 101) ~dim:100 in
  let large = One_sparse.create (Prng.create 101) ~dim:101 in
  One_sparse.update small ~index:5 ~delta:1;
  let msg = LS.serialize (module One_sparse.Linear) small in
  check_bool "dim-100 message rejected by dim-101 sketch" true
    (fails_with_failure (fun () -> LS.deserialize_into (module One_sparse.Linear) large msg))

(* ------------------------------------------------------------------ *)
(* Golden fixtures: the committed envelopes under golden/ were produced
   by the pre-Words (heap int-array) representation from the exact
   update stream in Linear_families. Reproducing them byte-for-byte
   pins the LSK1 wire format across the storage refactor.             *)
(* ------------------------------------------------------------------ *)

let test_golden name () =
  (* dune runtest runs in _build/default/test (fixtures at golden/);
     dune exec from the root sees them at test/golden/. *)
  let path =
    let local = Filename.concat "golden" (name ^ ".lsk1") in
    if Sys.file_exists local then local else Filename.concat "test" local
  in
  let ic = open_in_bin path in
  let expected = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_string
    (Printf.sprintf "golden fixture %s reproduced byte-for-byte (kernel=%s)" path Words.kernel)
    expected
    (Linear_families.golden_bytes (Linear_families.find name))

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let family_gen = QCheck.Gen.oneofl (List.map fst makers)

(* -- Words kernels against an int-array reference ------------------- *)

let field_p = 0x7fffffff

(* Magnitudes bounded so plain sums never overflow: the reference then
   needs no wraparound reasoning and must match the kernels exactly. *)
let word_gen = QCheck.Gen.int_range (-(1 lsl 50)) (1 lsl 50)
let field_gen = QCheck.Gen.int_range 0 (field_p - 1)

let ref_add a b = Array.mapi (fun i x -> x + b.(i)) a
let ref_sub a b = Array.mapi (fun i x -> x - b.(i)) a

(* Reference triple merge: words 0,1 plain; word 2 in the Mersenne field
   with both sides reduced -- Field.add/Field.sub respelled. *)
let ref_add_tri a b =
  Array.mapi
    (fun i x ->
      if i mod 3 = 2 then
        let s = x + b.(i) in
        if s >= field_p then s - field_p else s
      else x + b.(i))
    a

let ref_sub_tri a b =
  Array.mapi
    (fun i x ->
      if i mod 3 = 2 then
        let d = x - b.(i) in
        if d < 0 then d + field_p else d
      else x - b.(i))
    a

let kernel_agrees ~op ~ref_op (a, b) =
  let wa = Words.of_array a and wb = Words.of_array b in
  op wa wb;
  (* Aliased call on a third buffer: [op t t] must equal ref_op a a. *)
  let wc = Words.of_array a in
  op wc wc;
  Words.to_array wa = ref_op a b && Words.to_array wc = ref_op a a

let plain_pairs =
  QCheck.make
    QCheck.Gen.(
      map
        (fun ps -> (Array.of_list (List.map fst ps), Array.of_list (List.map snd ps)))
        (small_list (pair word_gen word_gen)))

let tri_gen = QCheck.Gen.(triple word_gen word_gen field_gen)

let tri_pairs =
  QCheck.make
    QCheck.Gen.(
      map
        (fun ts ->
          let arr pick =
            Array.of_list
              (List.concat_map
                 (fun t ->
                   let a0, a1, a2 = pick t in
                   [ a0; a1; a2 ])
                 ts)
          in
          (arr fst, arr snd))
        (small_list (pair tri_gen tri_gen)))

let prop_words_add =
  QCheck.Test.make ~name:"Words.add matches reference (incl. aliasing)" ~count:200 plain_pairs
    (kernel_agrees ~op:Words.add ~ref_op:ref_add)

let prop_words_sub =
  QCheck.Test.make ~name:"Words.sub matches reference (incl. aliasing)" ~count:200 plain_pairs
    (kernel_agrees ~op:Words.sub ~ref_op:ref_sub)

let prop_words_add_tri =
  QCheck.Test.make ~name:"Words.add_tri matches field reference (incl. aliasing)" ~count:200
    tri_pairs
    (kernel_agrees ~op:Words.add_tri ~ref_op:ref_add_tri)

let prop_words_sub_tri =
  QCheck.Test.make ~name:"Words.sub_tri matches field reference (incl. aliasing)" ~count:200
    tri_pairs
    (kernel_agrees ~op:Words.sub_tri ~ref_op:ref_sub_tri)

(* The ranged kernels against the same references: [b] sits 3 words into
   its buffer and lands 6 words into [a]'s, and the words around both
   ranges stay untouched. *)
let prop_words_ranges =
  QCheck.Test.make ~name:"Words.add_tri_range and blit match reference on sub-ranges" ~count:200
    tri_pairs (fun (a, b) ->
      let len = Array.length a in
      let pad k x = Array.concat [ Array.make k 7; x; Array.make 3 7 ] in
      let wa = Words.of_array (pad 6 a) and wb = Words.of_array (pad 3 b) in
      Words.add_tri_range ~src:wb ~src_pos:3 ~dst:wa ~dst_pos:6 ~len;
      let summed = Words.to_array wa = pad 6 (ref_add_tri a b) in
      Words.blit ~src:wb ~src_pos:3 ~dst:wa ~dst_pos:6 ~len;
      summed && Words.to_array wa = pad 6 b)

(* -- Typed family-level kernels (registry gives us the state type) --- *)

let prop_self_merge_doubles =
  QCheck.Test.make ~name:"aliased merge add t t = applying the stream twice" ~count:30
    QCheck.(pair (make family_gen) small_nat)
    (fun (name, seed) ->
      let (Linear_families.F f) = Linear_families.find name in
      let (module L) = f.impl in
      let a = f.make () and b = f.make () in
      let stream = Linear_families.update_stream ~dim:(L.dim a) seed in
      Linear_families.apply_stream f.impl a stream;
      Linear_families.apply_stream f.impl b stream;
      Linear_families.apply_stream f.impl b stream;
      L.add a a;
      LS.serialize f.impl a = LS.serialize f.impl b)

let prop_sub_cancels =
  QCheck.Test.make ~name:"sub cancels an added stream exactly" ~count:30
    QCheck.(triple (make family_gen) small_nat small_nat)
    (fun (name, s1, s2) ->
      let (Linear_families.F f) = Linear_families.find name in
      let (module L) = f.impl in
      let a = f.make () and c = f.make () and d = f.make () in
      let st1 = Linear_families.update_stream ~dim:(L.dim a) s1 in
      let st2 = Linear_families.update_stream ~dim:(L.dim a) s2 in
      Linear_families.apply_stream f.impl a st1;
      Linear_families.apply_stream f.impl a st2;
      Linear_families.apply_stream f.impl c st2;
      Linear_families.apply_stream f.impl d st1;
      L.sub a c;
      LS.serialize f.impl a = LS.serialize f.impl d)

let prop_reset_is_fresh =
  QCheck.Test.make ~name:"reset returns a used sketch to the fresh state" ~count:30
    QCheck.(pair (make family_gen) small_nat)
    (fun (name, seed) ->
      let (Linear_families.F f) = Linear_families.find name in
      let (module L) = f.impl in
      let a = f.make () in
      let stream = Linear_families.update_stream ~dim:(L.dim a) seed in
      Linear_families.apply_stream f.impl a stream;
      L.reset a;
      LS.serialize f.impl a = LS.serialize f.impl (f.make ()))

let prop_roundtrip =
  QCheck.Test.make ~name:"serialize/deserialize round-trips byte-for-byte" ~count:60
    QCheck.(pair (make family_gen) small_nat)
    (fun (name, seed) ->
      let make = maker name in
      let a = make () in
      apply_random_updates seed a;
      let msg = P.serialize a in
      let b = make () in
      P.deserialize_into b msg;
      P.serialize b = msg)

let prop_absorb_linear =
  QCheck.Test.make ~name:"absorb msg = add in-process, for any family and streams" ~count:40
    QCheck.(triple (make family_gen) small_nat small_nat)
    (fun (name, s1, s2) ->
      let make = maker name in
      let b = make () and c = make () and d = make () in
      apply_random_updates s1 b;
      apply_random_updates s2 c;
      apply_random_updates s1 d;
      apply_random_updates s2 d;
      P.absorb b (P.serialize c);
      P.serialize b = P.serialize d)

let prop_random_mutation_detected =
  QCheck.Test.make
    ~name:"any single-byte mutation or truncation raises Failure" ~count:150
    QCheck.(quad (make family_gen) small_nat small_nat small_nat)
    (fun (name, seed, pos_seed, kind) ->
      let make = maker name in
      let a = make () in
      apply_random_updates seed a;
      let msg = P.serialize a in
      let len = String.length msg in
      let pos = pos_seed mod len in
      let mutated =
        match kind mod 3 with
        | 0 -> String.sub msg 0 pos (* truncate *)
        | 1 ->
            (* flip one random bit *)
            let b = Bytes.of_string msg in
            Bytes.set b pos (Char.chr (Char.code msg.[pos] lxor (1 lsl (seed mod 8))));
            Bytes.to_string b
        | _ ->
            (* overwrite with an arbitrary byte (ensure a real change) *)
            let b = Bytes.of_string msg in
            let nb = Char.chr ((Char.code msg.[pos] + 1 + (seed mod 254)) land 0xff) in
            Bytes.set b pos nb;
            Bytes.to_string b
      in
      if mutated = msg then QCheck.assume_fail ()
      else
        let b = make () in
        fails_with_failure (fun () -> P.deserialize_into b mutated))

(* The space-accounting invariant behind the ledger (lib/obs): the wire
   body is the counters and nothing else, so it can never exceed
   [space_in_words] machine words, and the envelope around it is exactly
   the documented LSK1 header plus the 8-byte checksum -- no hidden
   state rides along when a sketch is shipped. *)
let prop_space_accounting =
  QCheck.Test.make ~name:"wire body <= 8 * space_in_words; envelope is exactly LSK1 header"
    ~count:60
    QCheck.(pair (make family_gen) small_nat)
    (fun (name, seed) ->
      let a = (maker name) () in
      apply_random_updates seed a;
      let msg = P.serialize a in
      let (P.T ((module L), sk)) = a in
      let body =
        let s = Wire.sink () in
        L.write_body sk s;
        String.length (Wire.contents s)
      in
      let envelope =
        let s = Wire.sink () in
        Wire.write_tag s "LSK1";
        Wire.write_tag s (P.family a);
        Wire.write_array s (P.shape a);
        String.length (Wire.contents s) + 8
      in
      String.length msg = envelope + body
      && body > 0
      && body <= 8 * P.space_in_words a)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_roundtrip; prop_absorb_linear; prop_random_mutation_detected; prop_space_accounting ]

let kernel_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_words_add;
      prop_words_sub;
      prop_words_add_tri;
      prop_words_sub_tri;
      prop_words_ranges;
      prop_self_merge_doubles;
      prop_sub_cancels;
      prop_reset_is_fresh;
    ]

let () =
  let per_family mk =
    List.map (fun (name, _) -> Alcotest.test_case name `Quick (mk name)) makers
  in
  Printf.printf "Words kernel in use: %s\n%!" Words.kernel;
  Alcotest.run "linear_sketch"
    [
      ("golden fixtures", per_family test_golden);
      ("roundtrip bytes", per_family test_roundtrip_bytes);
      ("absorb = in-process add", per_family test_absorb_equals_inprocess);
      ("clone_zero", per_family test_clone_zero_is_zero);
      ("clone_zero allocation", per_family test_clone_zero_allocation);
      ("family stamp", per_family test_family_stamped);
      ("truncation", per_family test_truncation_detected);
      ("bit flips", per_family test_bitflip_detected);
      ( "cross-family & shape",
        [
          Alcotest.test_case "cross-family rejected" `Quick test_cross_family_rejected;
          Alcotest.test_case "wrong shape rejected" `Quick test_wrong_shape_rejected;
        ] );
      ("properties", qcheck_cases);
      ("words kernels", kernel_cases);
    ]
