open Ds_util

type centers = bool array array

let sample_centers rng ~n ~k =
  if k < 1 then invalid_arg "Clustering.sample_centers: k must be >= 1";
  let rate r = float_of_int n ** (-.float_of_int r /. float_of_int k) in
  Array.init k (fun r ->
      if r = 0 then Array.make n true
      else begin
        let p = rate r in
        Array.init n (fun _ -> Prng.bernoulli rng p)
      end)

type attach = level:int -> root:int -> members:int list -> (int * (int * int)) option

type terminal = { root : int; level : int; members : int list }

type t = {
  n : int;
  k : int;
  centers : centers;
  terminal_id_of : int array;
  terminals : terminal array;
  witnesses : (int * int) list;
}

let build ~n ~k ~centers ~attach =
  if Array.length centers <> k then invalid_arg "Clustering.build: centers/k mismatch";
  let terminal_id_of = Array.make n (-1) in
  let terminals = ref [] in
  let num_terminals = ref 0 in
  let witnesses = ref [] in
  (* Live clusters at the current level: (root, members). *)
  let live = ref (List.init n (fun v -> (v, [ v ]))) in
  for level = 0 to k - 1 do
    let next = Hashtbl.create 16 in
    List.iter
      (fun (root, members) ->
        let attachment = if level = k - 1 then None else attach ~level ~root ~members in
        match attachment with
        | Some (parent, witness) ->
            if not centers.(level + 1).(parent) then
              invalid_arg "Clustering.build: parent not a level+1 center";
            witnesses := witness :: !witnesses;
            let prev = match Hashtbl.find_opt next parent with Some l -> l | None -> [] in
            Hashtbl.replace next parent (List.rev_append members prev)
        | None ->
            let tid = !num_terminals in
            incr num_terminals;
            terminals := { root; level; members } :: !terminals;
            List.iter (fun v -> terminal_id_of.(v) <- tid) members)
      !live;
    live := Hashtbl.fold (fun root members acc -> (root, members) :: acc) next []
  done;
  assert (!live = []);
  {
    n;
    k;
    centers;
    terminal_id_of;
    terminals = Array.of_list (List.rev !terminals);
    witnesses = !witnesses;
  }

let check_partition t =
  let seen = Array.make t.n false in
  let ok = ref true in
  Array.iteri
    (fun tid { members; _ } ->
      List.iter
        (fun v ->
          if seen.(v) then ok := false;
          seen.(v) <- true;
          if t.terminal_id_of.(v) <> tid then ok := false)
        members)
    t.terminals;
  !ok && Array.for_all (fun b -> b) seen
