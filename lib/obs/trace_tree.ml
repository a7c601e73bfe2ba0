(* Span-forest reconstruction and critical-path analysis over causal
   traces (Trace spans from the live ring, or parsed back from JSONL
   trace files of one or more domains/processes). *)

type node = {
  span : Trace.span;
  mutable children : node list; (* sorted by start_ns *)
  mutable parent : node option;
}

type forest = {
  roots : node list; (* sorted by start_ns *)
  node_count : int;
  orphans : int; (* parent_id set but not present in the span set *)
  cycles_broken : int; (* nodes promoted to roots to break parent cycles *)
}

let end_ns n = Int64.add n.span.Trace.start_ns n.span.Trace.dur_ns

let by_start a b =
  match Int64.compare a.span.Trace.start_ns b.span.Trace.start_ns with
  | 0 -> Int64.compare a.span.Trace.span_id b.span.Trace.span_id
  | c -> c

(* Build the forest: link children to parents by id, treat unresolvable
   parents as roots (counting them), then break any parent cycles (possible
   only in hand-edited or adversarial trace files) by promoting the
   earliest unreachable node to a root until every node is reachable.  The
   returned forest is therefore always acyclic with every edge resolvable. *)
let of_spans spans =
  let nodes = List.map (fun span -> { span; children = []; parent = None }) spans in
  let tbl = Hashtbl.create (List.length nodes * 2) in
  List.iter (fun n -> Hashtbl.replace tbl n.span.Trace.span_id n) nodes;
  let roots = ref [] and orphans = ref 0 in
  List.iter
    (fun n ->
      let pid = n.span.Trace.parent_id in
      if pid = 0L then roots := n :: !roots
      else
        match Hashtbl.find_opt tbl pid with
        | Some p when p != n ->
            n.parent <- Some p;
            p.children <- n :: p.children
        | _ ->
            incr orphans;
            roots := n :: !roots)
    nodes;
  (* Reachability sweep; detach-and-promote breaks cycles. *)
  let visited = Hashtbl.create (List.length nodes * 2) in
  let rec mark n =
    if not (Hashtbl.mem visited n.span.Trace.span_id) then begin
      Hashtbl.replace visited n.span.Trace.span_id n;
      List.iter mark n.children
    end
  in
  let cycles = ref 0 in
  let rec sweep () =
    List.iter mark !roots;
    let unreached =
      List.filter (fun n -> not (Hashtbl.mem visited n.span.Trace.span_id)) nodes
    in
    match List.sort by_start unreached with
    | [] -> ()
    | n :: _ ->
        (match n.parent with
        | Some p ->
            p.children <- List.filter (fun c -> c != n) p.children;
            n.parent <- None
        | None -> ());
        incr cycles;
        roots := n :: !roots;
        sweep ()
  in
  sweep ();
  List.iter (fun n -> n.children <- List.sort by_start n.children) nodes;
  {
    roots = List.sort by_start !roots;
    node_count = List.length nodes;
    orphans = !orphans;
    cycles_broken = !cycles;
  }

let rec iter f node =
  f node;
  List.iter (iter f) node.children

let iter_forest f forest = List.iter (iter f) forest.roots

(* Self time: the node's duration minus the union of its children's
   intervals clamped to its own.  Children may overlap (parallel shards on
   other domains), so intervals are merged, never summed. *)
let self_ns node =
  let s = node.span.Trace.start_ns and e = end_ns node in
  let clamped =
    List.filter_map
      (fun c ->
        let cs = max s c.span.Trace.start_ns and ce = min e (end_ns c) in
        if Int64.compare ce cs > 0 then Some (cs, ce) else None)
      node.children
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Int64.compare a b) clamped in
  let covered = ref 0L and cursor = ref s in
  List.iter
    (fun (cs, ce) ->
      let cs = max cs !cursor in
      if Int64.compare ce cs > 0 then begin
        covered := Int64.add !covered (Int64.sub ce cs);
        cursor := ce
      end)
    sorted;
  Int64.sub node.span.Trace.dur_ns !covered

(* -------------------- per-phase rollups -------------------- *)

type rollup = {
  r_name : string;
  r_count : int;
  r_total_ns : int64; (* sum of span durations *)
  r_self_ns : int64; (* sum of self times *)
  r_max_ns : int64; (* longest single span *)
}

let rollups forest =
  let tbl = Hashtbl.create 64 in
  iter_forest
    (fun n ->
      let name = n.span.Trace.name in
      let prev =
        Option.value
          (Hashtbl.find_opt tbl name)
          ~default:{ r_name = name; r_count = 0; r_total_ns = 0L; r_self_ns = 0L; r_max_ns = 0L }
      in
      Hashtbl.replace tbl name
        {
          prev with
          r_count = prev.r_count + 1;
          r_total_ns = Int64.add prev.r_total_ns n.span.Trace.dur_ns;
          r_self_ns = Int64.add prev.r_self_ns (self_ns n);
          r_max_ns = max prev.r_max_ns n.span.Trace.dur_ns;
        })
    forest;
  Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
  |> List.sort (fun a b -> Int64.compare b.r_self_ns a.r_self_ns)

(* -------------------- critical path -------------------- *)

(* Backward walk from the root's end: at each instant the blocking span is
   the child with the latest end before the cursor; gaps between children
   are the parent's own time.  The produced segments partition the root's
   interval exactly, so their durations sum to the root duration by
   construction — the cross-check `trace-analyze` reports. *)
let critical_segments root =
  let segs = ref [] in
  let rec walk node ~floor ~until =
    let rec consume t =
      if Int64.compare t floor <= 0 then ()
      else begin
        let best =
          List.fold_left
            (fun acc c ->
              if Int64.compare c.span.Trace.start_ns t < 0 then
                let ce = min (end_ns c) t in
                if Int64.compare ce floor > 0 then
                  match acc with
                  | Some b when Int64.compare (min (end_ns b) t) ce >= 0 -> acc
                  | _ -> Some c
                else acc
              else acc)
            None node.children
        in
        match best with
        | None -> segs := (node, Int64.sub t floor) :: !segs
        | Some c ->
            let c_end = min (end_ns c) t in
            if Int64.compare c_end t < 0 then segs := (node, Int64.sub t c_end) :: !segs;
            let c_floor = max floor c.span.Trace.start_ns in
            walk c ~floor:c_floor ~until:c_end;
            consume c_floor
      end
    in
    ignore until;
    consume until
  in
  walk root ~floor:root.span.Trace.start_ns ~until:(end_ns root);
  !segs (* ascending in time: built by prepending as the cursor moves back *)

type path_step = { p_node : node; p_ns : int64 }

(* One entry per span on the path (a span interrupted by children appears
   once, with its segments summed), ordered by first appearance in time. *)
let critical_path root =
  let segs = critical_segments root in
  let order = Hashtbl.create 16 and totals = Hashtbl.create 16 in
  let next = ref 0 in
  List.iter
    (fun (n, d) ->
      let id = n.span.Trace.span_id in
      if not (Hashtbl.mem order id) then begin
        Hashtbl.replace order id (!next, n);
        incr next
      end;
      Hashtbl.replace totals id
        (Int64.add d (Option.value ~default:0L (Hashtbl.find_opt totals id))))
    segs;
  Hashtbl.fold (fun id (rank, n) acc -> (rank, { p_node = n; p_ns = Hashtbl.find totals id }) :: acc) order []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let path_total path = List.fold_left (fun acc s -> Int64.add acc s.p_ns) 0L path

(* Longest root = the run under analysis, when several traces share a file. *)
let main_root forest =
  List.fold_left
    (fun acc n ->
      match acc with
      | Some b when Int64.compare b.span.Trace.dur_ns n.span.Trace.dur_ns >= 0 -> acc
      | _ -> Some n)
    None forest.roots

(* -------------------- JSONL parsing -------------------- *)

(* One Json object per line, as Trace.to_jsonl writes.  Unknown keys are
   ignored and missing causal ids default to 0, so pre-causal trace files
   still load. *)
let span_of_line line =
  let module J = Ds_util.Json in
  match J.parse line with
  | Ok (J.Obj _ as j) ->
      let int64 key = Option.value ~default:0L (Option.bind (J.member key j) J.to_int64) in
      {
        Trace.name = Option.value ~default:"?" (Option.bind (J.member "name" j) J.to_str);
        start_ns = int64 "start_ns";
        dur_ns = int64 "dur_ns";
        domain = Int64.to_int (int64 "domain");
        pid = Int64.to_int (int64 "pid");
        trace_id = int64 "trace_id";
        span_id = int64 "span_id";
        parent_id = int64 "parent_id";
      }
  | Ok _ -> failwith "Trace_tree.parse: not a JSON object"
  | Error m -> failwith ("Trace_tree.parse: " ^ m)

let parse_jsonl data =
  String.split_on_char '\n' data
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map span_of_line

(* -------------------- exporters -------------------- *)

(* Chrome trace-event JSON (the array form): complete events ("ph":"X")
   with microsecond timestamps, pid/tid from the recording process/domain.
   Loads directly in Perfetto and chrome://tracing. *)
let to_chrome_json spans =
  let open Ds_util.Json in
  let us ns = Num (Int64.to_float ns /. 1e3) in
  let id v = Str (Printf.sprintf "%Lx" v) in
  to_string
    (Arr
       (List.map
          (fun (sp : Trace.span) ->
            Obj
              [
                ("name", Str sp.Trace.name);
                ("cat", Str "span");
                ("ph", Str "X");
                ("ts", us sp.Trace.start_ns);
                ("dur", us sp.Trace.dur_ns);
                ("pid", int sp.Trace.pid);
                ("tid", int sp.Trace.domain);
                ( "args",
                  Obj
                    [
                      ("trace_id", id sp.Trace.trace_id);
                      ("span_id", id sp.Trace.span_id);
                      ("parent_id", id sp.Trace.parent_id);
                    ] );
              ])
          spans))
  ^ "\n"

(* Folded-stack output for flamegraph.pl / speedscope: one line per
   distinct root-to-node chain, weighted by summed self time in ns. *)
let to_folded forest =
  let clean name =
    String.map (function ';' | ' ' -> '_' | c -> c) name
  in
  let tbl = Hashtbl.create 64 in
  let rec go prefix n =
    let stack =
      if prefix = "" then clean n.span.Trace.name
      else prefix ^ ";" ^ clean n.span.Trace.name
    in
    let self = self_ns n in
    if Int64.compare self 0L > 0 then
      Hashtbl.replace tbl stack
        (Int64.add self (Option.value ~default:0L (Hashtbl.find_opt tbl stack)));
    List.iter (go stack) n.children
  in
  List.iter (go "") forest.roots;
  let lines = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let b = Buffer.create 1024 in
  List.iter
    (fun (stack, ns) -> Buffer.add_string b (Printf.sprintf "%s %Ld\n" stack ns))
    (List.sort compare lines);
  Buffer.contents b
