(* Measurement plumbing shared by the workloads: clocks, order
   statistics, set-up and job loops, peak RSS, span rollups and the
   result record every workload returns. *)

(* Seed of each job workload's fixed instance: its graph and its
   algorithm's hash functions.  The workload seed drives the churned
   stream (which decoys, in what order), so every seed does the same work
   and ends at the same sketch state: two-pass spanner and AGM structure
   sizes swing by a third across random instances, which no run length
   could average away. *)
let instance_seed = 20140721

let now_ns = Ds_obs.Clock.now_ns
let ms_since t0 = Int64.to_float (Ds_obs.Clock.elapsed_ns t0) /. 1e6
let s_since t0 = ms_since t0 /. 1e3

let timed_ms f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

(* A full major collection outside every timed region, so no job pays
   for the garbage its predecessor left behind. *)
let settle () = Gc.full_major ()

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank quantile. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sum xs = List.fold_left ( +. ) 0.0 xs

(* One cluster of fresh set-ups, each after a settled heap, until at
   least [times] were timed and they took a second in all (at most 256):
   the last one's product and the timed set-ups' seconds.  With
   [~warmup:true] a first, untimed set-up pays the fresh process's page
   faults.  Earlier products go to [discard] before the next set-up
   starts, so at most one is live.  Each workload runs one cluster
   before its measured part and one after it, so setup_s samples the
   shared host at both ends of the run. *)
let setups ?(discard = ignore) ~warmup ~times f =
  if warmup then begin
    settle ();
    discard (f ())
  end;
  let rec go acc total =
    settle ();
    let r, ms = timed_ms f in
    let acc = (ms /. 1e3) :: acc and total = total +. (ms /. 1e3) in
    let n = List.length acc in
    if (n >= times && total >= 1.0) || n >= 256 then (r, acc)
    else begin
      discard r;
      go acc total
    end
  in
  go [] 0.0

(* Runs [job i] for [i = 0, 1, ...] until [seconds] have elapsed and at
   least [min_runs] ran, settling the heap before each. *)
let repeat ~seconds ~min_runs job =
  let t0 = now_ns () in
  let rec go i acc =
    if i >= min_runs && s_since t0 >= seconds then List.rev acc
    else begin
      settle ();
      let r = job i in
      go (i + 1) (r :: acc)
    end
  in
  go 0 []

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    Printf.sprintf "/proc/%s/status"
      (match pid with None -> "self" | Some p -> string_of_int p)
  in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* FNV-1a over a canonical rendering: how repeated jobs prove they
   reproduced the first job's verified output. *)
let digest_edges edges =
  let b = Buffer.create 4096 in
  List.iter (fun (u, v) -> Printf.bprintf b "%d-%d;" (min u v) (max u v)) (List.sort compare edges);
  Ds_util.Wire.fnv1a64 (Buffer.contents b)

let digest_stream (stream : Ds_stream.Update.t array) =
  let b = Buffer.create (16 * Array.length stream) in
  Array.iter
    (fun (u : Ds_stream.Update.t) ->
      Printf.bprintf b "%d %d %d;" u.Ds_stream.Update.u u.Ds_stream.Update.v
        (Ds_stream.Update.delta u))
    stream;
  Ds_util.Wire.fnv1a64 (Buffer.contents b)

(* ---- results -------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

type check = { what : string; ok : bool; detail : string }

let check what ok detail = { what; ok; detail }

(* setup_s: the median over both clusters of set-ups. *)
let setup_metric times = metric ~samples:(List.length times) "setup_s" "s" (median times)

type outcome = {
  e2e : metric list;  (** the end-to-end metrics (run with tracing off) *)
  extra : metric list;
      (** workload-specific end-to-end figures printed but not gated *)
  layers : metric list;  (** per-layer metrics (traced run only) *)
  checks : check list;
  attempted : int;
  failed : int;
  inputs : int64;  (** digest of the generated inputs: a function of the seed *)
  notes : string list;  (** printed as they are *)
}

(* ---- traced runs ---------------------------------------------------- *)

let trace_capacity = 1 lsl 16

let start_tracing () =
  Ds_obs.Trace.reset ~capacity:trace_capacity ();
  Ds_obs.Trace.set_enabled true

(* The spans recorded since the last call, cleared from the ring. *)
let take_spans () =
  let s = Ds_obs.Trace.spans () in
  if Ds_obs.Trace.dropped () > 0 then failwith "perfbench: trace ring overflowed";
  Ds_obs.Trace.reset ();
  s

(* Per span name: (total ns, self ns, count). *)
let rollup spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Hashtbl.replace tbl r.Ds_obs.Trace_tree.r_name
        ( Int64.to_float r.Ds_obs.Trace_tree.r_total_ns,
          Int64.to_float r.Ds_obs.Trace_tree.r_self_ns,
          r.Ds_obs.Trace_tree.r_count ))
    (Ds_obs.Trace_tree.rollups (Ds_obs.Trace_tree.of_spans spans));
  tbl

let total_ns tbl name = match Hashtbl.find_opt tbl name with Some (t, _, _) -> t | None -> 0.0
let self_ns tbl name = match Hashtbl.find_opt tbl name with Some (_, s, _) -> s | None -> 0.0
let count tbl name = match Hashtbl.find_opt tbl name with Some (_, _, c) -> c | None -> 0

(* Share of the root spans' time that none of [layers] covers.  The
   layer spans must not overlap one another (nest parallel spans under a
   covering span and name that one). *)
let unattributed tbl ~roots ~layers =
  let whole = List.fold_left (fun a r -> a +. total_ns tbl r) 0.0 roots in
  let covered = List.fold_left (fun a l -> a +. total_ns tbl l) 0.0 layers in
  if whole <= 0.0 then nan else (whole -. covered) /. whole

(* Relative slowdown of traced over untraced repetitions of one job. *)
let overhead ~traced ~untraced = (median traced /. median untraced) -. 1.0

(* ---- the job loop of spanner-churn, sparsify1p and forest-par ---------- *)

(* One measured job: its wall time, its span rollup if it was traced, and
   what the workload kept of its output (taken after the clock stopped). *)
type 'k run = { ms : float; spans : (string, float * float * int) Hashtbl.t option; kept : 'k }

(* The measured jobs, after the workload's warm-up job: [job] repeated
   for [seconds] (at least 3 times, 6 when traced), each after a settled
   heap.  In the traced run even jobs record spans and odd ones do not;
   the two medians give the tracing overhead. *)
let jobs ~trace ~seconds ~keep job =
  if trace then start_tracing ();
  repeat ~seconds ~min_runs:(if trace then 6 else 3) (fun i ->
      let traced = trace && i land 1 = 0 in
      Ds_obs.Trace.set_enabled traced;
      let r, ms = timed_ms job in
      Ds_obs.Trace.set_enabled false;
      { ms; spans = (if traced then Some (rollup (take_spans ())) else None); kept = keep r })

(* [traced_metric runs name unit_ f]: the median over the traced jobs
   of [f] of each job's span rollup, with the traced job count as its
   sample count. *)
let traced_metric runs name unit_ f =
  let traced = List.filter_map (fun r -> r.spans) runs in
  metric ~samples:(List.length traced) name unit_ (median (List.map f traced))

(* The six end-to-end metrics every job workload reports.  [ingest_ms]
   is a job's time in its ingest call; ingest_ups is the median over
   jobs of the updates per second of that call. *)
let job_metrics ~setup_times ~runs ~updates ~ingest_ms ~output_edges ~sketch_words ~peak_rss_mb =
  let jobs = List.length runs in
  [
    setup_metric setup_times;
    metric ~samples:jobs "job_p50_ms" "ms" (median (List.map (fun r -> r.ms) runs));
    metric ~samples:jobs "ingest_ups" "updates/s"
      (median (List.map (fun r -> float_of_int updates /. (ingest_ms r /. 1e3)) runs));
    metric "output_edges" "edges" (float_of_int output_edges);
    metric "sketch_words" "words" (float_of_int sketch_words);
    metric "peak_rss_mb" "MB" peak_rss_mb;
  ]

(* unattributed_frac (the share of each traced job no [layers] span
   covers) and trace_overhead_frac of a job workload's traced run. *)
let job_trace_metrics ~runs ~layers =
  let times = List.map (fun r -> r.ms) runs in
  [
    traced_metric runs "unattributed_frac" "ratio" (fun t ->
        unattributed t ~roots:[ "bench.job" ] ~layers);
    metric ~samples:(List.length times) "trace_overhead_frac" "ratio"
      (overhead
         ~traced:(List.filteri (fun i _ -> i land 1 = 0) times)
         ~untraced:(List.filteri (fun i _ -> i land 1 = 1) times));
  ]

(* Repeated jobs must reproduce the warm-up's verified output: the check
   and the number of jobs that did not. *)
let reproduce_check what ~same runs =
  let bad = List.length (List.filter (fun r -> not (same r.kept)) runs) in
  ( check ("repeated jobs reproduce the verified " ^ what) (bad = 0)
      (Printf.sprintf "%d of %d differ" bad (List.length runs)),
    bad )
