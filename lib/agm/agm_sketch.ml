open Ds_util
open Ds_sketch
open Ds_graph

type params = { copies : int; sampler : L0_sampler.params }

(* The entire copies x n sampler grid lives in one off-heap buffer,
   copy-major (copy [c] vertex [u] at [((c*n) + u) * sampler_words]):
   merging two whole sketches is one triple-kernel pass, each repetition
   is a contiguous region (so {!Copy} slices merge with one pass too),
   and a domain replica is a single zeroed allocation.  Within one copy
   all vertices share hash functions so that their sketches are
   compatible (mergeable); copies are independent.  [configs] keeps each
   copy's sampler structure once. *)
type t = {
  n : int;
  prm : params;
  configs : L0_sampler.config array; (* one per copy *)
  sampler_words : int;
  words : Words.t;
}

let default_params ~n =
  { copies = F0.levels_for n + 3; sampler = L0_sampler.default_params }

let create rng ~n ~params:prm =
  if n < 2 then invalid_arg "Agm_sketch.create: need at least two vertices";
  let dim = Edge_index.dim n in
  let configs =
    Array.init prm.copies (fun c ->
        L0_sampler.make_config
          (Prng.split_named rng (Printf.sprintf "copy%d" c))
          ~dim ~params:prm.sampler)
  in
  let sampler_words = L0_sampler.state_words configs.(0) in
  { n; prm; configs; sampler_words; words = Words.create (prm.copies * n * sampler_words) }

(* Vertex [u]'s sampler of copy [c]; callers have checked both. *)
let[@inline] sampler_off t c u = ((c * t.n) + u) * t.sampler_words

let n t = t.n
let copies t = t.prm.copies

(* Degraded-δ accounting for quorum decoding: a spanning-forest extraction
   needs ~ceil(log2 n) Boruvka rounds, one independent sampler copy each;
   the default budget carries 3 spare copies, and each spare at least halves
   the residual failure probability (the spares are exactly the retry slack
   of the round-failure analysis). With [copies] usable repetitions the
   certified failure probability is therefore 2^(levels - copies), clamped
   to 1 when the budget cannot even cover the rounds. *)
let certified_delta ~n ~copies =
  if copies <= 0 then 1.0
  else min 1.0 (2.0 ** float_of_int (F0.levels_for n - copies))

let clone_zero t = { t with words = Words.create (Words.length t.words) }

let reset t = Words.fill t.words 0

let signed_delta ~u ~v delta = if u < v then delta else -delta

let update t ~u ~v ~delta =
  if u = v then invalid_arg "Agm_sketch.update: self-loop";
  (* Rejects a vertex outside [0, n) before any offset is formed. *)
  let idx = Edge_index.encode ~n:t.n u v in
  let x = Kwise.fold_key idx in
  (* The folded key and its powers are shared by every hash evaluation this
     update triggers (copies x levels x rows). *)
  let x2 = Field.mul x x in
  let x4 = Field.mul x2 x2 in
  let du = signed_delta ~u ~v delta in
  for c = 0 to t.prm.copies - 1 do
    let cfg = Array.unsafe_get t.configs c in
    (* Both endpoints' samplers share this copy's hash functions: one level
       evaluation and one set of bucket evaluations serves both, +du into
       [u]'s sketch and -du into [v]'s. *)
    let level = L0_sampler.level_of_pows cfg ~x ~x2 ~x4 in
    L0_sampler.update_prepared_pair_pows cfg t.words ~plus:(sampler_off t c u)
      ~minus:(sampler_off t c v) ~index:idx ~x ~x2 ~x4 ~level ~delta:du
  done

let update_slice t updates ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length updates then
    invalid_arg "Agm_sketch.update_slice: range out of bounds";
  let module U = Ds_stream.Update in
  let apply (e : U.t) = update t ~u:e.U.u ~v:e.U.v ~delta:(U.delta e) in
  if len < 64 then
    for i = pos to pos + len - 1 do
      apply updates.(i)
    done
  else begin
    (* Group the slice by lower endpoint before applying: one vertex's
       sampler column is a small, cache-resident slice of the whole sketch,
       so consecutive same-vertex updates hit warm lines instead of paging
       through all n columns. The sketch is linear — every update is a pure
       counter addition — so the reordered application yields the
       bit-identical final state. *)
    let counts = Array.make t.n 0 in
    for i = pos to pos + len - 1 do
      let e = updates.(i) in
      let k = min e.U.u e.U.v in
      counts.(k) <- counts.(k) + 1
    done;
    let next = Array.make t.n 0 in
    let acc = ref 0 in
    for k = 0 to t.n - 1 do
      next.(k) <- !acc;
      acc := !acc + counts.(k)
    done;
    let sorted = Array.make len updates.(pos) in
    for i = pos to pos + len - 1 do
      let e = updates.(i) in
      let k = min e.U.u e.U.v in
      sorted.(next.(k)) <- e;
      next.(k) <- next.(k) + 1
    done;
    Array.iter apply sorted
  end

let update_batch t updates = update_slice t updates ~pos:0 ~len:(Array.length updates)

let subtract_graph t g =
  if Graph.n g <> t.n then invalid_arg "Agm_sketch.subtract_graph: size mismatch";
  Graph.iter_edges g (fun u v -> update t ~u ~v ~delta:(-1))

let check_compatible t s =
  if t.n <> s.n || t.prm <> s.prm || not (Array.for_all2 L0_sampler.compatible t.configs s.configs)
  then invalid_arg "Agm_sketch: incompatible"

(* All copies x n samplers merge in one pass over the two buffers. *)
let add t s =
  check_compatible t s;
  Words.add_tri t.words s.words

let sub t s =
  check_compatible t s;
  Words.sub_tri t.words s.words

let spanning_forest ?labels ?copies t =
  let usable =
    match copies with
    | None -> Array.init t.prm.copies (fun c -> c)
    | Some cs ->
        Array.iter
          (fun c ->
            if c < 0 || c >= t.prm.copies then
              invalid_arg "Agm_sketch.spanning_forest: copy index out of range")
          cs;
        cs
  in
  let uf = Union_find.create t.n in
  (match labels with
  | None -> ()
  | Some l ->
      if Array.length l <> t.n then invalid_arg "Agm_sketch.spanning_forest: bad labels";
      (* Pre-merge supernodes: vertices with equal labels are one node. *)
      let seen = Hashtbl.create 16 in
      Array.iteri
        (fun v lab ->
          match Hashtbl.find_opt seen lab with
          | None -> Hashtbl.add seen lab v
          | Some first -> ignore (Union_find.union uf first v))
        l);
  let forest = ref [] in
  let round = ref 0 in
  let exhausted = ref false in
  (* A round with no unions is NOT termination: all vertices of one copy
     share hash functions (they must, to be mergeable), so decode failures
     are correlated across components within a round — the next copy is
     independent. Termination is certified only when every component's
     merged sketch is provably empty (no outgoing edges anywhere). *)
  while (not !exhausted) && !round < Array.length usable && Union_find.num_classes uf > 1 do
    let members = Union_find.class_members uf in
    (* One fresh sampler copy per Boruvka round — only copies the caller
       certifies as usable (the surviving quorum, in degraded decodes). *)
    let c = usable.(!round) in
    let cfg = t.configs.(c) and sw = t.sampler_words in
    incr round;
    (* Candidate outgoing edge per component, from the merged sketch. *)
    let candidates = ref [] in
    let all_empty = ref true in
    Array.iteri
      (fun rep mem ->
        match mem with
        | [] -> ()
        | first :: rest -> (
            let merged = Words.create sw in
            Words.blit ~src:t.words ~src_pos:(sampler_off t c first) ~dst:merged ~dst_pos:0
              ~len:sw;
            List.iter
              (fun v ->
                Words.add_tri_range ~src:t.words ~src_pos:(sampler_off t c v) ~dst:merged
                  ~dst_pos:0 ~len:sw)
              rest;
            match L0_sampler.classify_at cfg merged ~off:0 with
            | `Empty -> ()
            | `Fail -> all_empty := false
            | `Sample (idx, _) ->
                all_empty := false;
                let a, b = Edge_index.decode ~n:t.n idx in
                (* Internal edges cancel, so exactly one endpoint should be
                   inside; anything else is a (detectable) decode artefact. *)
                let ina = Union_find.find uf a = rep and inb = Union_find.find uf b = rep in
                if ina <> inb then candidates := (a, b) :: !candidates))
      members;
    if !all_empty then exhausted := true
    else
      List.iter
        (fun (a, b) -> if Union_find.union uf a b then forest := (a, b) :: !forest)
        !candidates
  done;
  !forest

let space_in_words t =
  Array.fold_left (fun a cfg -> a + (t.n * L0_sampler.space_in_words_of cfg)) 0 t.configs

(* Every sampler of [cfg] in the [n]-vertex region of [words] at [base],
   in vertex order: the body of one repetition. *)
let write_copy cfg ~n ~sw words ~base sink =
  for u = 0 to n - 1 do
    L0_sampler.write_at cfg words ~off:(base + (u * sw)) sink
  done

let read_copy cfg ~n ~sw words ~base src =
  for u = 0 to n - 1 do
    L0_sampler.read_at cfg words ~off:(base + (u * sw)) src
  done

let write t sink =
  Wire.write_tag sink "agm";
  Wire.write_int sink t.n;
  Array.iteri
    (fun c cfg ->
      write_copy cfg ~n:t.n ~sw:t.sampler_words t.words ~base:(sampler_off t c 0) sink)
    t.configs

let read_into t src =
  Wire.expect_tag src "agm";
  if Wire.read_int src <> t.n then failwith "Agm_sketch.read_into: size mismatch";
  Array.iteri
    (fun c cfg -> read_copy cfg ~n:t.n ~sw:t.sampler_words t.words ~base:(sampler_off t c 0) src)
    t.configs

module Linear = struct
  type nonrec t = t

  let family = "agm"
  let dim t = Edge_index.dim t.n

  let shape t =
    let s = t.prm.sampler in
    [| t.n; t.prm.copies; s.L0_sampler.sparsity; s.L0_sampler.rows; s.L0_sampler.hash_degree |]

  let clone_zero = clone_zero
  let add = add
  let sub = sub

  (* The index/delta face: coordinates of the sketched vector are edge
     indices, so decode and route through the signed-incidence update. *)
  let update t ~index ~delta =
    let u, v = Edge_index.decode ~n:t.n index in
    update t ~u ~v ~delta

  let reset = reset
  let space_in_words = space_in_words
  let write_body = write
  let read_body = read_into
end

let serialize ?trace t = Ds_sketch.Linear_sketch.serialize ?trace (module Linear) t
let deserialize_into t data = Ds_sketch.Linear_sketch.deserialize_into (module Linear) t data
let deserialize_result t data = Ds_sketch.Linear_sketch.deserialize_result (module Linear) t data

(* ------------------------------------------------------------------ *)
(* One repetition as a first-class linear sketch: the unit of shipping
   in the supervised cluster protocol, where losing one envelope must
   cost one repetition, not the whole sketch.                          *)

module Copy = struct
  type slice = {
    sn : int;
    sprm : params;
    c : int;
    cfg : L0_sampler.config; (* the parent's configs.(c) *)
    sw : int;
    cwords : Words.t; (* the parent buffer region of this repetition *)
  }

  let slice t c =
    if c < 0 || c >= t.prm.copies then invalid_arg "Agm_sketch.Copy.slice: copy out of range";
    (* Copy-major layout: repetition [c] is the contiguous buffer region
       [c*n*sw .. (c+1)*n*sw), so slice merges are one kernel pass. *)
    let sw = t.sampler_words in
    {
      sn = t.n;
      sprm = t.prm;
      c;
      cfg = t.configs.(c);
      sw;
      cwords = Words.view t.words ~pos:(sampler_off t c 0) ~len:(t.n * sw);
    }

  let index t = t.c

  module Linear = struct
    type t = slice

    let family = "agm_copy"
    let dim s = Edge_index.dim s.sn

    (* The copy index is part of the shape: copy c's hash structure is
       derived from the "copy<c>" seed chain, so a copy-j message merged
       into a copy-c slice would be semantically incompatible even though
       the counter layout matches. *)
    let shape s =
      let p = s.sprm.sampler in
      [|
        s.sn;
        s.c;
        s.sprm.copies;
        p.L0_sampler.sparsity;
        p.L0_sampler.rows;
        p.L0_sampler.hash_degree;
      |]

    let clone_zero s = { s with cwords = Words.create (Words.length s.cwords) }

    let check_compatible a b =
      if a.sn <> b.sn || a.c <> b.c || a.sprm <> b.sprm || not (L0_sampler.compatible a.cfg b.cfg)
      then invalid_arg "Agm_sketch.Copy: incompatible slices"

    let add a b =
      check_compatible a b;
      Words.add_tri a.cwords b.cwords

    let sub a b =
      check_compatible a b;
      Words.sub_tri a.cwords b.cwords

    let reset s = Words.fill s.cwords 0

    let update s ~index ~delta =
      let u, v = Edge_index.decode ~n:s.sn index in
      if u = v then invalid_arg "Agm_sketch.Copy.update: self-loop";
      let x = Kwise.fold_key index in
      let x2 = Field.mul x x in
      let x4 = Field.mul x2 x2 in
      let du = signed_delta ~u ~v delta in
      let level = L0_sampler.level_of_pows s.cfg ~x ~x2 ~x4 in
      L0_sampler.update_prepared_pair_pows s.cfg s.cwords ~plus:(u * s.sw) ~minus:(v * s.sw) ~index
        ~x ~x2 ~x4 ~level ~delta:du

    let space_in_words s = s.sn * L0_sampler.space_in_words_of s.cfg
    let write_body s sink = write_copy s.cfg ~n:s.sn ~sw:s.sw s.cwords ~base:0 sink
    let read_body s src = read_copy s.cfg ~n:s.sn ~sw:s.sw s.cwords ~base:0 src
  end

  let serialize ?trace s = Ds_sketch.Linear_sketch.serialize ?trace (module Linear) s

  let absorb_result s data = Ds_sketch.Linear_sketch.absorb_result (module Linear) s data
end
