(* Deterministic fault injection and the self-healing coordinator:
   plan determinism, channel semantics (fuzzed over sketch families),
   retry accounting, and the supervised cluster protocol's recovery and
   degraded-decode guarantees. *)

open Ds_util
open Ds_sketch
open Ds_fault

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

module FP = Fault_plan
module P = Linear_sketch.Packed

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let grid f =
  for server = 0 to 4 do
    for message = 0 to 15 do
      for attempt = 0 to 4 do
        f ~server ~message ~attempt
      done
    done
  done

let test_plan_deterministic () =
  let a = FP.random ~seed:42 ~rate:0.3 in
  let b = FP.random ~seed:42 ~rate:0.3 in
  grid (fun ~server ~message ~attempt ->
      check_bool "same draw" true
        (FP.draw a ~server ~message ~attempt = FP.draw b ~server ~message ~attempt))

let test_plan_seed_matters () =
  let a = FP.random ~seed:1 ~rate:0.5 in
  let b = FP.random ~seed:2 ~rate:0.5 in
  let differ = ref false in
  grid (fun ~server ~message ~attempt ->
      if FP.draw a ~server ~message ~attempt <> FP.draw b ~server ~message ~attempt then
        differ := true);
  check_bool "different seeds differ somewhere" true !differ

let test_plan_rate_boundaries () =
  let zero = FP.random ~seed:7 ~rate:0.0 in
  let one = FP.random ~seed:7 ~rate:1.0 in
  grid (fun ~server ~message ~attempt ->
      check_bool "rate 0 never faults" true (FP.draw zero ~server ~message ~attempt = None);
      check_bool "rate 1 always faults" true (FP.draw one ~server ~message ~attempt <> None));
  grid (fun ~server ~message ~attempt ->
      check_bool "empty plan" true (FP.draw FP.none ~server ~message ~attempt = None))

let test_plan_of_list () =
  let plan = FP.of_list ~seed:3 [ ((1, 2, 0), FP.Crash); ((0, 0, 1), FP.Drop) ] in
  check_bool "override hit" true (FP.draw plan ~server:1 ~message:2 ~attempt:0 = Some FP.Crash);
  check_bool "override hit" true (FP.draw plan ~server:0 ~message:0 ~attempt:1 = Some FP.Drop);
  check_bool "elsewhere clean" true (FP.draw plan ~server:0 ~message:0 ~attempt:0 = None);
  check_bool "elsewhere clean" true (FP.draw plan ~server:1 ~message:2 ~attempt:1 = None)

let test_rate_roughly_respected () =
  let plan = FP.random ~seed:99 ~rate:0.2 in
  let total = ref 0 and faulted = ref 0 in
  grid (fun ~server ~message ~attempt ->
      incr total;
      if FP.draw plan ~server ~message ~attempt <> None then incr faulted);
  let observed = float_of_int !faulted /. float_of_int !total in
  check_bool "rate within loose bounds" true (observed > 0.1 && observed < 0.3)

(* ------------------------------------------------------------------ *)
(* Supervisor: backoff and retry accounting                            *)
(* ------------------------------------------------------------------ *)

let test_delay_schedule () =
  Alcotest.(check (float 1e-9)) "first attempt free" 0.0 (Supervisor.delay_before ~attempt:0);
  Alcotest.(check (float 1e-9)) "base" 1.0 (Supervisor.delay_before ~attempt:1);
  Alcotest.(check (float 1e-9)) "doubled" 2.0 (Supervisor.delay_before ~attempt:2);
  Alcotest.(check (float 1e-9)) "doubled again" 4.0 (Supervisor.delay_before ~attempt:3);
  Alcotest.(check (float 1e-9)) "capped" 8.0 (Supervisor.delay_before ~attempt:4);
  Alcotest.(check (float 1e-9)) "stays capped" 8.0 (Supervisor.delay_before ~attempt:9)

let test_retry_succeeds_after_failures () =
  let result, stats =
    Supervisor.retry (fun ~attempt ->
        if attempt < 2 then Error "transient" else Ok attempt)
  in
  check_bool "eventually ok" true (result = Ok 2);
  check_int "attempts" 3 stats.Supervisor.attempts;
  Alcotest.(check (float 1e-9)) "backoff 1+2" 3.0 stats.Supervisor.backoff

let test_retry_exhausts () =
  let calls = ref 0 in
  let result, stats =
    Supervisor.retry (fun ~attempt:_ ->
        incr calls;
        Error "permanent")
  in
  check_bool "last error" true (result = Error "permanent");
  check_int "capped attempts" Supervisor.max_attempts !calls;
  check_int "stats agree" !calls stats.Supervisor.attempts;
  Alcotest.(check (float 1e-9)) "backoff 1+2+4+8" 15.0 stats.Supervisor.backoff

(* ------------------------------------------------------------------ *)
(* Channel semantics, fuzzed over sketch families: whatever the fault,
   an envelope either round-trips exactly, is detected as corrupt (the
   destination untouched), or never arrives. No silent wrong merge.    *)
(* ------------------------------------------------------------------ *)

let makers : (string * (unit -> P.t)) list =
  [
    ( "one_sparse",
      fun () -> P.pack (module One_sparse.Linear) (One_sparse.create (Prng.create 201) ~dim:80)
    );
    ( "count_sketch",
      fun () ->
        P.pack
          (module Count_sketch.Linear)
          (Count_sketch.create (Prng.create 202) ~dim:80
             ~params:{ Count_sketch.rows = 3; cols = 16; hash_degree = 4 }) );
    ( "l0_sampler",
      fun () ->
        P.pack
          (module L0_sampler.Linear)
          (L0_sampler.create (Prng.create 203) ~dim:80 ~params:L0_sampler.default_params) );
    ( "agm",
      fun () ->
        P.pack
          (module Ds_agm.Agm_sketch.Linear)
          (Ds_agm.Agm_sketch.create (Prng.create 204) ~n:12
             ~params:(Ds_agm.Agm_sketch.default_params ~n:12)) );
  ]

let fill sk seed =
  let rng = Prng.create (10_000 + seed) in
  for _ = 1 to 30 do
    P.update sk ~index:(Prng.int rng (P.dim sk)) ~delta:(Prng.int rng 9 - 4)
  done

let fault_gen =
  QCheck.Gen.(
    oneof
      [
        return FP.Crash;
        return FP.Drop;
        map (fun k -> FP.Corrupt (1 + k)) (int_bound 3);
        return FP.Truncate;
        return FP.Duplicate;
        map (fun d -> FP.Delay (1 + d)) (int_bound 2);
      ])

let prop_no_silent_wrong_merge =
  QCheck.Test.make ~name:"any fault: round-trip, detected, or dropped — never wrong merge"
    ~count:120
    QCheck.(
      triple (make (Gen.oneofl (List.map fst makers))) (make fault_gen) small_nat)
    (fun (family, fault, seed) ->
      let make = List.assoc family makers in
      let src = make () in
      fill src seed;
      let msg = P.serialize src in
      let plan = FP.of_list ~seed [ ((0, 0, 0), fault) ] in
      let rng = FP.channel_rng plan ~server:0 ~message:0 ~attempt:0 in
      let dst = make () in
      let before = P.serialize dst in
      let check_arrival bytes =
        if String.equal bytes msg then (
          (* Intact arrival must merge to exactly the sender's state. *)
          match P.absorb_result dst bytes with
          | Ok () -> String.equal (P.serialize dst) msg
          | Error _ -> false)
        else
          (* Damaged arrival must be rejected with the destination
             untouched. *)
          match P.absorb_result dst bytes with
          | Ok () -> false
          | Error _ -> String.equal (P.serialize dst) before
      in
      match FP.apply rng (FP.draw plan ~server:0 ~message:0 ~attempt:0) msg with
      | FP.Delivered bytes | FP.Duplicated bytes | FP.Delayed (_, bytes) -> check_arrival bytes
      | FP.Lost | FP.Crashed -> String.equal (P.serialize dst) before)

let prop_damage_is_real =
  QCheck.Test.make ~name:"corrupt/truncate always change the bytes" ~count:120
    QCheck.(pair (make (Gen.oneofl (List.map fst makers))) small_nat)
    (fun (family, seed) ->
      let make = List.assoc family makers in
      let src = make () in
      fill src seed;
      let msg = P.serialize src in
      let plan = FP.of_list ~seed [ ((0, 0, 0), FP.Corrupt 2); ((0, 1, 0), FP.Truncate) ] in
      let corrupted =
        match
          FP.apply
            (FP.channel_rng plan ~server:0 ~message:0 ~attempt:0)
            (Some (FP.Corrupt 2)) msg
        with
        | FP.Delivered b -> b
        | _ -> Alcotest.fail "corrupt must deliver"
      in
      let truncated =
        match
          FP.apply (FP.channel_rng plan ~server:0 ~message:1 ~attempt:0) (Some FP.Truncate) msg
        with
        | FP.Delivered b -> b
        | _ -> Alcotest.fail "truncate must deliver"
      in
      (not (String.equal corrupted msg))
      && String.length truncated < String.length msg
      && String.equal truncated (String.sub msg 0 (String.length truncated)))

(* ------------------------------------------------------------------ *)
(* The supervised cluster protocol                                     *)
(* ------------------------------------------------------------------ *)

open Ds_sim

let make_stream seed ~n =
  let rng = Prng.create seed in
  let g = Ds_graph.Gen.connected_gnp rng ~n ~p:0.1 in
  Ds_stream.Stream_gen.with_churn (Prng.split rng) ~decoys:150 g

let supervised ?allow_reingest ~plan ~seed ~n ~servers stream =
  Cluster_sim.run_supervised ?allow_reingest ~plan (Prng.create seed) ~n ~servers stream

(* The acceptance gate: a run through a plan carrying at least one crash,
   one corruption and one drop heals to the byte-identical merged sketch
   of the fault-free run. *)
let test_healed_run_matches_fault_free () =
  let n = 60 in
  let stream = make_stream 31 ~n in
  let clean = supervised ~plan:FP.none ~seed:32 ~n ~servers:3 stream in
  let plan =
    FP.of_list ~seed:33
      [
        ((0, 1, 0), FP.Crash);
        (* server 0 dies after shipping its first repetition *)
        ((1, 0, 0), FP.Corrupt 2);
        ((2, 2, 0), FP.Drop);
        ((1, 4, 0), FP.Duplicate);
        ((2, 5, 0), FP.Delay 2);
      ]
  in
  let faulted = supervised ~plan ~seed:32 ~n ~servers:3 stream in
  check_bool "clean run correct" true clean.Cluster_sim.sup_forest_correct;
  check_bool "faulted run correct" true faulted.Cluster_sim.sup_forest_correct;
  check_bool "faults were injected" true (faulted.Cluster_sim.sup_faults >= 5);
  check_bool "server 0 crashed" true (faulted.Cluster_sim.sup_crashed_servers = [ 0 ]);
  check_bool "server 0 reingested" true
    (List.mem 0 faulted.Cluster_sim.sup_reingested_servers);
  check_bool "nothing lost" true (faulted.Cluster_sim.sup_lost_servers = []);
  check_bool "duplicate rejected" true (faulted.Cluster_sim.sup_duplicates_rejected >= 1);
  check_bool "corruption detected" true (faulted.Cluster_sim.sup_decode_errors >= 1);
  check_bool "retries happened" true (faulted.Cluster_sim.sup_retries >= 1);
  check_string "merged state byte-identical"
    (Printf.sprintf "%Lx" clean.Cluster_sim.sup_merged_hash)
    (Printf.sprintf "%Lx" faulted.Cluster_sim.sup_merged_hash);
  check_int "full quorum after healing" faulted.Cluster_sim.sup_copies
    faulted.Cluster_sim.sup_quorum

let test_supervised_replayable () =
  let n = 50 in
  let stream = make_stream 41 ~n in
  let plan = FP.random ~seed:42 ~rate:0.15 in
  let a = supervised ~plan ~seed:43 ~n ~servers:4 stream in
  let b = supervised ~plan ~seed:43 ~n ~servers:4 stream in
  check_bool "replay gives the identical report" true (a = b)

let test_clean_plan_full_quorum () =
  let n = 40 in
  let stream = make_stream 61 ~n in
  let r = supervised ~plan:FP.none ~seed:62 ~n ~servers:3 stream in
  check_int "no faults" 0 r.Cluster_sim.sup_faults;
  check_int "no retries" 0 r.Cluster_sim.sup_retries;
  check_int "one attempt per message" r.Cluster_sim.sup_messages r.Cluster_sim.sup_attempts;
  check_int "full quorum" r.Cluster_sim.sup_copies r.Cluster_sim.sup_quorum;
  check_bool "correct" true r.Cluster_sim.sup_forest_correct

(* Without re-ingestion a repetition that never arrives shrinks the quorum
   and the certified failure probability degrades honestly. *)
let test_degraded_quorum_decode () =
  let n = 60 in
  let stream = make_stream 71 ~n in
  let copies = (Ds_agm.Agm_sketch.default_params ~n).Ds_agm.Agm_sketch.copies in
  (* Persistently drop server 1's repetition 3: every attempt fails. *)
  let drops =
    List.init Supervisor.max_attempts (fun a -> ((1, 3, a), FP.Drop))
  in
  let plan = FP.of_list ~seed:72 drops in
  let r = supervised ~allow_reingest:false ~plan ~seed:73 ~n ~servers:3 stream in
  check_int "one repetition lost" (copies - 1) r.Cluster_sim.sup_quorum;
  check_bool "server 1 unhealed" true (r.Cluster_sim.sup_lost_servers = [ 1 ]);
  check_bool "delta degraded but certified" true
    (r.Cluster_sim.sup_degraded_delta > Ds_agm.Agm_sketch.certified_delta ~n ~copies
    && r.Cluster_sim.sup_degraded_delta < 1.0);
  check_bool "quorum decode still correct" true r.Cluster_sim.sup_forest_correct;
  (* The same plan with healing enabled restores the full quorum. *)
  let healed = supervised ~plan ~seed:73 ~n ~servers:3 stream in
  check_int "healed quorum" copies healed.Cluster_sim.sup_quorum;
  check_bool "healed correct" true healed.Cluster_sim.sup_forest_correct

let test_late_crash_partial_quorum () =
  let n = 60 in
  let stream = make_stream 81 ~n in
  let copies = (Ds_agm.Agm_sketch.default_params ~n).Ds_agm.Agm_sketch.copies in
  (* Server 0 dies while shipping its last repetition. *)
  let plan = FP.of_list ~seed:82 [ ((0, copies - 1, 0), FP.Crash) ] in
  let r = supervised ~allow_reingest:false ~plan ~seed:83 ~n ~servers:3 stream in
  check_int "all but the last repetition usable" (copies - 1) r.Cluster_sim.sup_quorum;
  check_bool "server 0 lost" true (r.Cluster_sim.sup_lost_servers = [ 0 ]);
  check_bool "crash recorded" true (r.Cluster_sim.sup_crashed_servers = [ 0 ])

let prop_supervised_any_rate =
  QCheck.Test.make ~name:"supervised run heals at any fault rate" ~count:8
    QCheck.(pair (1 -- 5) (0 -- 30))
    (fun (servers, rate_pct) ->
      let n = 30 in
      let stream = make_stream (100 + servers) ~n in
      let plan = FP.random ~seed:(200 + rate_pct) ~rate:(float_of_int rate_pct /. 100.) in
      let clean = supervised ~plan:FP.none ~seed:300 ~n ~servers stream in
      let r = supervised ~plan ~seed:300 ~n ~servers stream in
      r.Cluster_sim.sup_forest_correct
      && r.Cluster_sim.sup_merged_hash = clean.Cluster_sim.sup_merged_hash
      && r.Cluster_sim.sup_quorum = r.Cluster_sim.sup_copies)

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "seed matters" `Quick test_plan_seed_matters;
          Alcotest.test_case "rate boundaries" `Quick test_plan_rate_boundaries;
          Alcotest.test_case "explicit overrides" `Quick test_plan_of_list;
          Alcotest.test_case "rate respected" `Quick test_rate_roughly_respected;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "delay schedule" `Quick test_delay_schedule;
          Alcotest.test_case "retry recovers" `Quick test_retry_succeeds_after_failures;
          Alcotest.test_case "retry exhausts" `Quick test_retry_exhausts;
        ] );
      ( "channel",
        [
          QCheck_alcotest.to_alcotest prop_no_silent_wrong_merge;
          QCheck_alcotest.to_alcotest prop_damage_is_real;
        ] );
      ( "supervised",
        [
          Alcotest.test_case "healed = fault-free, byte for byte" `Quick
            test_healed_run_matches_fault_free;
          Alcotest.test_case "replayable" `Quick test_supervised_replayable;
          Alcotest.test_case "clean plan" `Quick test_clean_plan_full_quorum;
          Alcotest.test_case "degraded quorum decode" `Quick test_degraded_quorum_decode;
          Alcotest.test_case "late crash" `Quick test_late_crash_partial_quorum;
          QCheck_alcotest.to_alcotest prop_supervised_any_rate;
        ] );
    ]
