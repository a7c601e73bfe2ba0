(* Parallel ingestion: pool mechanics and the linearity contract the static
   partition rests on. The load-bearing properties are the serialize-equality
   ones — ingesting on a pool of any size, then adding the worker replicas,
   must reproduce the sequential sketch state {e bit for bit}, for every
   linear sketch. *)

open Ds_util
open Ds_sketch
open Ds_par

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* The pool size is the worker count, so sweeping sizes 1..8 sweeps the
   partitions of a stream. One pool is live at a time, replaced when a test
   asks for another size: idle domains are not free, since every one of
   them joins each stop-the-world minor collection. *)
let pool_sizes = List.init 8 (fun i -> i + 1)
let current = ref None

let pool_of size =
  match !current with
  | Some p when Pool.size p = size -> p
  | prev ->
      Option.iter Pool.shutdown prev;
      let p = Pool.create ~domains:size () in
      current := Some p;
      p

let () = at_exit (fun () -> Option.iter Pool.shutdown !current)
let pool () = pool_of 4

(* -------------------- Pool mechanics -------------------- *)

let test_pool_order () =
  let results = Pool.run (pool ()) (List.init 20 (fun i () -> i * i)) in
  check_bool "submission order" true (results = List.init 20 (fun i -> i * i))

let test_pool_exception () =
  let ran = Array.make 8 false in
  let thunks =
    List.init 8 (fun i () ->
        ran.(i) <- true;
        if i = 3 then failwith "boom")
  in
  (match Pool.run (pool ()) thunks with
  | _ -> Alcotest.fail "expected the job's exception to propagate"
  | exception Failure msg -> check_string "propagated exception" "boom" msg);
  check_bool "remaining jobs still ran" true (Array.for_all Fun.id ran)

let test_pool_reuse () =
  let p = pool () in
  let sum l = List.fold_left ( + ) 0 l in
  let a = sum (Pool.run p (List.init 10 (fun i () -> i))) in
  let b = sum (Pool.run p (List.init 10 (fun i () -> 2 * i))) in
  check_int "first batch" 45 a;
  check_int "second batch (same pool)" 90 b

let test_pool_shutdown () =
  let p = Pool.create ~domains:2 () in
  check_int "size" 2 (Pool.size p);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  match Pool.submit p (fun () -> ()) with
  | () -> Alcotest.fail "submit after shutdown should raise"
  | exception Invalid_argument _ -> ()

(* -------------------- Static partition -------------------- *)

(* The slices [update] sees on a pool of [size]: recorded through
   [ingest_into] with range lists for sketches, so the partition itself is
   observable. *)
let slices size n =
  let seen = ref [] in
  Shard_ingest.ingest_into (pool_of size)
    ~clone_zero:(fun _ -> ref [])
    ~update:(fun r _ ~pos ~len -> r := (pos, len) :: !r)
    ~add:(fun dst r -> dst := !r @ !dst)
    seen (Array.make n ());
  List.sort compare !seen

(* min(size, n) slices, each non-empty, tiling [0, n) in order, sizes
   differing by at most one. *)
let test_slices_tile () =
  List.iter
    (fun size ->
      List.iter
        (fun n ->
          let name = Printf.sprintf "pool %d, %d updates" size n in
          let got = slices size n in
          check_int (name ^ ": one slice per worker") (min size n) (List.length got);
          let next =
            List.fold_left
              (fun pos (lo, len) ->
                check_int (name ^ ": contiguous") pos lo;
                check_bool (name ^ ": non-empty") true (len >= 1);
                lo + len)
              0 got
          in
          check_int (name ^ ": covers the stream") n next;
          let lens = List.map snd got in
          if lens <> [] then
            check_bool (name ^ ": balanced") true
              (List.fold_left max 0 lens - List.fold_left min n lens <= 1))
        [ 0; 1; size - 1; size; size + 1; 103 ])
    pool_sizes

(* -------------------- Serialize-equality properties -------------------- *)

let state_of write t =
  let sink = Wire.sink () in
  write t sink;
  Wire.contents sink

let dim = 200
let coord_gen = QCheck.(small_list (pair (int_bound (dim - 1)) (int_range (-3) 3)))

(* Zipf-ish coordinates: rank r drawn uniformly, index = exp(u ln dim) so
   P(index = k) ~ 1/(k+1).  A handful of hot keys carry most of the mass,
   so every worker's slice lands on the same few counters and the
   replicas overlap exactly where the sum is most likely to go wrong. *)
let zipf_index r =
  let u = float_of_int (r land 0xFFFFF) /. 1048576.0 in
  min (dim - 1) (int_of_float (exp (u *. log (float_of_int dim))) - 1)

let zipf_coord_gen =
  QCheck.(
    small_list (pair (int_bound 0xFFFFF) (int_range (-3) 3))
    |> map (List.map (fun (r, d) -> (zipf_index r, d))))

(* Ingest [w] through [Shard_ingest.linear] on a pool of every size in
   [sizes] and demand byte-identical serialized state vs the sequential
   fold. Every sketch is a [clone_zero] of one [make ()], so they share
   one seed-derived structure. *)
let pooled_matches ?(sizes = pool_sizes) (type s) (impl : s Linear_sketch.impl) ~make w =
  let (module L) = impl in
  let proto = make () in
  let seq = L.clone_zero proto in
  Array.iter (fun (index, delta) -> L.update seq ~index ~delta) w;
  let expect = Linear_sketch.serialize impl seq in
  List.for_all
    (fun size ->
      let par = L.clone_zero proto in
      Shard_ingest.linear (pool_of size) impl par w;
      Linear_sketch.serialize impl par = expect)
    sizes

let prop_one_sparse_batch =
  QCheck.Test.make ~name:"one_sparse update_batch = fold of update" ~count:50 coord_gen
    (fun coords ->
      let w = Array.of_list coords in
      let a = One_sparse.create (Prng.create 7) ~dim in
      let b = One_sparse.create (Prng.create 7) ~dim in
      Array.iter (fun (index, delta) -> One_sparse.update a ~index ~delta) w;
      One_sparse.update_batch b w;
      state_of One_sparse.write a = state_of One_sparse.write b)

let sr_params = { Sparse_recovery.sparsity = 2; rows = 3; hash_degree = 6 }

let prop_sr_batch =
  QCheck.Test.make ~name:"sparse_recovery update_batch = fold of update" ~count:50 coord_gen
    (fun coords ->
      let w = Array.of_list coords in
      let a = Sparse_recovery.create (Prng.create 7) ~dim ~params:sr_params in
      let b = Sparse_recovery.create (Prng.create 7) ~dim ~params:sr_params in
      Array.iter (fun (index, delta) -> Sparse_recovery.update a ~index ~delta) w;
      Sparse_recovery.update_batch b w;
      state_of Sparse_recovery.write a = state_of Sparse_recovery.write b)

let prop_l0_batch =
  QCheck.Test.make ~name:"l0_sampler update_batch = fold of update" ~count:40 coord_gen
    (fun coords ->
      let w = Array.of_list coords in
      let a = L0_sampler.create (Prng.create 7) ~dim ~params:L0_sampler.default_params in
      let b = L0_sampler.create (Prng.create 7) ~dim ~params:L0_sampler.default_params in
      Array.iter (fun (index, delta) -> L0_sampler.update a ~index ~delta) w;
      L0_sampler.update_batch b w;
      state_of L0_sampler.write a = state_of L0_sampler.write b)

let sr_make () = Sparse_recovery.create (Prng.create 11) ~dim ~params:sr_params
let sr_pooled_matches w = pooled_matches (module Sparse_recovery.Linear) ~make:sr_make w

let prop_sr_sharded =
  QCheck.Test.make ~name:"sparse_recovery sharded+merge = sequential (all pool sizes)"
    ~count:10 coord_gen (fun coords -> sr_pooled_matches (Array.of_list coords))

let prop_sr_sharded_zipf =
  QCheck.Test.make
    ~name:"sparse_recovery sharded+merge = sequential (zipf-skewed keys)" ~count:10
    zipf_coord_gen (fun coords -> sr_pooled_matches (Array.of_list coords))

let prop_l0_sharded =
  QCheck.Test.make ~name:"l0_sampler sharded+merge = sequential (all pool sizes)" ~count:8
    coord_gen (fun coords ->
      pooled_matches (module L0_sampler.Linear) (Array.of_list coords) ~make:(fun () ->
          L0_sampler.create (Prng.create 11) ~dim ~params:L0_sampler.default_params))

(* Every registered linear family, through the one generic entry point. *)
let test_every_family () =
  List.iter
    (fun (Linear_families.F f) ->
      let (module L) = f.impl in
      let w = Linear_families.update_stream ~count:60 ~dim:(L.dim (f.make ())) 7 in
      check_bool (f.name ^ " pooled = sequential") true
        (pooled_matches f.impl ~make:f.make w))
    Linear_families.all

(* Edge streams for the AGM properties. *)
let agm_n = 24

let edge_gen =
  QCheck.(
    small_list (triple (int_bound (agm_n - 1)) (int_bound (agm_n - 2)) bool)
    |> map (fun l ->
           List.map
             (fun (u, dv, ins) ->
               let v = (u + 1 + dv) mod agm_n in
               if ins then Ds_stream.Update.insert u v else Ds_stream.Update.delete u v)
             l))

let agm_create seed =
  Ds_agm.Agm_sketch.create (Prng.create seed) ~n:agm_n
    ~params:(Ds_agm.Agm_sketch.default_params ~n:agm_n)

let prop_agm_batch =
  QCheck.Test.make ~name:"agm update_batch = fold of update" ~count:15 edge_gen (fun edges ->
      let module U = Ds_stream.Update in
      let w = Array.of_list edges in
      let a = agm_create 7 and b = agm_create 7 in
      Array.iter (fun (e : U.t) -> Ds_agm.Agm_sketch.update a ~u:e.U.u ~v:e.U.v ~delta:(U.delta e)) w;
      Ds_agm.Agm_sketch.update_batch b w;
      Ds_agm.Agm_sketch.serialize a = Ds_agm.Agm_sketch.serialize b)

let agm_pooled_matches ?(sizes = pool_sizes) w =
  let seq = agm_create 11 in
  Ds_agm.Agm_sketch.update_batch seq w;
  let expect = Ds_agm.Agm_sketch.serialize seq in
  List.for_all
    (fun size ->
      let par = agm_create 11 in
      Shard_ingest.agm (pool_of size) par w;
      Ds_agm.Agm_sketch.serialize par = expect)
    sizes

let prop_agm_sharded =
  QCheck.Test.make ~name:"agm sharded+merge = sequential (all pool sizes)" ~count:6 edge_gen
    (fun edges -> agm_pooled_matches (Array.of_list edges))

(* Star streams around vertex 0: every slice updates vertex 0's sampler
   column, so all replicas carry counters for the same hot vertex. *)
let star_edge_gen =
  QCheck.(
    small_list (pair (int_bound (agm_n - 2)) bool)
    |> map (fun l ->
           List.map
             (fun (dv, ins) ->
               let v = 1 + dv in
               if ins then Ds_stream.Update.insert 0 v else Ds_stream.Update.delete 0 v)
             l))

let prop_agm_sharded_star =
  QCheck.Test.make ~name:"agm sharded+merge = sequential (single hot vertex)" ~count:6
    star_edge_gen (fun edges -> agm_pooled_matches (Array.of_list edges))

(* Streams shorter than the pool (0, 1 and W-1 updates) leave workers
   without a slice: only min(W, n) replicas may take part. *)
let test_short_streams () =
  let rng = Prng.create 93 in
  List.iter
    (fun size ->
      List.iter
        (fun len ->
          let name = Printf.sprintf "pool %d, %d updates" size len in
          let coords = Array.init len (fun _ -> (Prng.int rng dim, Prng.int rng 7 - 3)) in
          check_bool (name ^ ": sparse_recovery") true
            (pooled_matches ~sizes:[ size ] (module Sparse_recovery.Linear) ~make:sr_make coords);
          let edges =
            Array.init len (fun _ ->
                let u = Prng.int rng (agm_n - 1) in
                Ds_stream.Update.insert u (u + 1 + Prng.int rng (agm_n - 1 - u)))
          in
          check_bool (name ^ ": agm") true (agm_pooled_matches ~sizes:[ size ] edges))
        [ 0; 1; size - 1 ])
    pool_sizes

(* -------------------- Replica arenas -------------------- *)

(* Arena-backed runs must (a) reproduce the sequential bytes on every
   round — a recycled replica starts each round as the exact zero
   sketch — and (b) stop allocating replicas once every slot has been
   exercised: the arena's off-heap footprint is monotone during warm-up
   and constant afterwards. One arena serves pools of different sizes. *)
let test_arena_reuse () =
  let rng = Prng.create 91 in
  let round _ =
    Array.init 600 (fun _ ->
        let u = Prng.int rng (agm_n - 1) in
        let v = u + 1 + Prng.int rng (agm_n - 1 - u) in
        if Prng.bool rng then Ds_stream.Update.insert u v else Ds_stream.Update.delete u v)
  in
  let sizes = [ 4; 2; 8; 1; 3 ] in
  let seq = agm_create 13 and par = agm_create 13 in
  let arena = Shard_ingest.agm_arena () in
  check_int "fresh arena holds nothing" 0 (Shard_ingest.arena_bytes arena);
  let footprint = ref 0 in
  List.iteri
    (fun i size ->
      let w = round () in
      Ds_agm.Agm_sketch.update_batch seq w;
      Shard_ingest.agm (pool_of size) ~arena par w;
      check_string
        (Printf.sprintf "round %d (pool %d) bit-identical to sequential" i size)
        (Ds_agm.Agm_sketch.serialize seq)
        (Ds_agm.Agm_sketch.serialize par);
      let b = Shard_ingest.arena_bytes arena in
      check_bool (Printf.sprintf "round %d footprint monotone" i) true (b >= !footprint);
      footprint := b)
    sizes;
  (* The 8-domain round priced one replica per slot beyond slot 0. *)
  check_int "arena priced seven replicas"
    (7 * 8 * Ds_agm.Agm_sketch.space_in_words par)
    (Shard_ingest.arena_bytes arena);
  (* Steady state: more runs, on any pool size, do not grow the arena. *)
  let before = Shard_ingest.arena_bytes arena in
  List.iter
    (fun size ->
      let w = round () in
      Ds_agm.Agm_sketch.update_batch seq w;
      Shard_ingest.agm (pool_of size) ~arena par w;
      check_string
        (Printf.sprintf "steady-state round (pool %d) bit-identical" size)
        (Ds_agm.Agm_sketch.serialize seq)
        (Ds_agm.Agm_sketch.serialize par))
    [ 8; 5 ];
  check_int "steady-state footprint constant" before (Shard_ingest.arena_bytes arena)

(* The generic arena over the packed linear interface: recycling through
   [L.reset] must keep sparse-recovery ingest byte-identical too. *)
let test_arena_linear () =
  let make () = Sparse_recovery.create (Prng.create 19) ~dim ~params:sr_params in
  let seq = make () and par = make () in
  let arena = Shard_ingest.arena_of (module Sparse_recovery.Linear) in
  let rng = Prng.create 92 in
  for i = 1 to 4 do
    let w = Array.init 500 (fun _ -> (Prng.int rng dim, Prng.int rng 7 - 3)) in
    Array.iter (fun (index, delta) -> Sparse_recovery.update seq ~index ~delta) w;
    Shard_ingest.linear (pool ()) ~arena (module Sparse_recovery.Linear) par w;
    check_string
      (Printf.sprintf "linear arena round %d bit-identical" i)
      (state_of Sparse_recovery.write seq)
      (state_of Sparse_recovery.write par)
  done

(* -------------------- Consumers -------------------- *)

(* A valid dynamic stream: deletions only target currently-live edges, so the
   offline ground-truth graph the consumers verify against is well-defined. *)
let random_stream seed ~n ~updates =
  let rng = Prng.create seed in
  let live = ref [] in
  let nlive = ref 0 in
  Array.init updates (fun _ ->
      if !nlive > 0 && Prng.int rng 5 = 0 then begin
        let k = Prng.int rng !nlive in
        let u, v = List.nth !live k in
        live := List.filteri (fun i _ -> i <> k) !live;
        decr nlive;
        Ds_stream.Update.delete u v
      end
      else begin
        let u = Prng.int rng n in
        let v = (u + 1 + Prng.int rng (n - 1)) mod n in
        live := (u, v) :: !live;
        incr nlive;
        Ds_stream.Update.insert u v
      end)

let test_cluster_sim_parallel_equal () =
  let stream = random_stream 31 ~n:48 ~updates:600 in
  List.iter
    (fun partition ->
      let seq =
        Ds_sim.Cluster_sim.run ~mode:`Sequential (Prng.create 5) ~n:48 ~servers:4 ~partition
          stream
      in
      let par =
        Ds_sim.Cluster_sim.run ~mode:(`Parallel (pool ())) (Prng.create 5) ~n:48 ~servers:4
          ~partition stream
      in
      check_bool "parallel report identical" true (seq = par);
      check_bool "forest verified" true seq.Ds_sim.Cluster_sim.forest_correct)
    [ Ds_sim.Cluster_sim.Round_robin; Ds_sim.Cluster_sim.By_vertex ]

let test_two_pass_parallel_equal () =
  let module T = Ds_core.Two_pass_spanner in
  let n = 32 in
  let stream = random_stream 33 ~n ~updates:400 in
  let params = T.default_params ~k:2 in
  let seq = T.run ~ingest:`Sequential (Prng.create 9) ~n ~params stream in
  List.iter
    (fun size ->
      let par = T.run ~ingest:(`Parallel (pool_of size)) (Prng.create 9) ~n ~params stream in
      let name = Printf.sprintf "pool %d: identical " size in
      check_bool (name ^ "spanner") true (Ds_graph.Graph.equal_edge_sets seq.T.spanner par.T.spanner);
      check_bool (name ^ "accessed edges") true
        (List.sort compare seq.T.accessed_edges = List.sort compare par.T.accessed_edges);
      check_int (name ^ "space accounting") seq.T.space_words par.T.space_words)
    pool_sizes

(* -------------------- Kwise.to_range uniformity -------------------- *)

(* Regression for the modulo-bias fix: with [bound = 0x60000000] (~0.75 p) a
   plain [eval mod bound] sends every value in [bound, p) to [0, p - bound),
   inflating P(output < bound/2) from 0.5 to ~0.625 — over 26 sigma at this
   sample size. The rejection chain restores 0.5. *)
let test_to_range_unbiased () =
  let h = Kwise.create (Prng.create 77) ~k:6 in
  let bound = 0x60000000 in
  let keys = 20_000 in
  let below = ref 0 in
  for x = 0 to keys - 1 do
    let v = Kwise.to_range h x ~bound in
    check_bool "in range" true (0 <= v && v < bound);
    if v < bound / 2 then incr below
  done;
  let frac = float_of_int !below /. float_of_int keys in
  check_bool
    (Printf.sprintf "no modulo bias (frac below midpoint = %.4f)" frac)
    true
    (frac > 0.48 && frac < 0.52)

(* The power-of-two fast path must stay deterministic and balanced. *)
let test_to_range_pow2_balanced () =
  let h = Kwise.create (Prng.create 78) ~k:6 in
  let bound = 8 in
  let counts = Array.make bound 0 in
  for x = 0 to 7_999 do
    let v = Kwise.to_range h x ~bound in
    check_int "deterministic" v (Kwise.to_range h x ~bound);
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun b c ->
      check_bool
        (Printf.sprintf "bucket %d balanced (%d)" b c)
        true
        (abs (c - 1000) < 200))
    counts

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_one_sparse_batch;
      prop_sr_batch;
      prop_l0_batch;
      prop_agm_batch;
      prop_sr_sharded;
      prop_sr_sharded_zipf;
      prop_l0_sharded;
      prop_agm_sharded;
      prop_agm_sharded_star;
    ]

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "result order" `Quick test_pool_order;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "reuse" `Quick test_pool_reuse;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
        ] );
      ( "plan",
        [
          Alcotest.test_case "empty and tiny streams" `Quick test_short_streams;
          Alcotest.test_case "slices tile the stream" `Quick test_slices_tile;
        ] );
      ( "linearity",
        qcheck_cases
        @ [ Alcotest.test_case "every linear family pooled = sequential" `Quick test_every_family ]
      );
      ( "arena",
        [
          Alcotest.test_case "agm replica reuse stays exact" `Quick test_arena_reuse;
          Alcotest.test_case "generic linear arena stays exact" `Quick test_arena_linear;
        ] );
      ( "consumers",
        [
          Alcotest.test_case "cluster_sim parallel = sequential" `Quick
            test_cluster_sim_parallel_equal;
          Alcotest.test_case "two_pass parallel = sequential" `Quick
            test_two_pass_parallel_equal;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "to_range unbiased" `Quick test_to_range_unbiased;
          Alcotest.test_case "to_range pow2 balanced" `Quick test_to_range_pow2_balanced;
        ] );
    ]
