let shards = 32
let shard_mask = shards - 1

type counter = { c_name : string; c_cells : int Atomic.t array }
type gauge = { g_name : string; g_cell : int Atomic.t }
type metric = C of counter | G of gauge

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

(* Counter shards exist precisely so domains don't contend, which only
   works if each shard's cell sits on its own cache line — unpadded,
   [Array.init] packs the 32 atomics into 2-3 lines and hammering
   domains false-share them. *)
let cells n = Ds_util.Padding.array n 0

let register name ~kind ~make ~cast =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match cast m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Ds_obs.Metrics: %S already registered as a different kind \
                    (wanted %s)"
                   name kind))
      | None ->
          let v, m = make () in
          Hashtbl.add registry name m;
          v)

let counter name =
  register name ~kind:"counter"
    ~make:(fun () ->
      let c = { c_name = name; c_cells = cells shards } in
      (c, C c))
    ~cast:(function C c -> Some c | _ -> None)

let gauge name =
  register name ~kind:"gauge"
    ~make:(fun () ->
      let g = { g_name = name; g_cell = Ds_util.Padding.atomic 0 } in
      (g, G g))
    ~cast:(function G g -> Some g | _ -> None)

let shard_index () = (Domain.self () :> int) land shard_mask

let incr c n =
  if Atomic.get enabled_flag then
    ignore (Atomic.fetch_and_add c.c_cells.(shard_index ()) n)

let set g v = if Atomic.get enabled_flag then Atomic.set g.g_cell v

let value c = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.c_cells
let gauge_value g = Atomic.get g.g_cell

type snapshot = { counters : (string * int) list; gauges : (string * int) list }

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  with_lock (fun () ->
      let cs = ref [] and gs = ref [] in
      Hashtbl.iter
        (fun name -> function
          | C c -> cs := (name, value c) :: !cs
          | G g -> gs := (name, gauge_value g) :: !gs)
        registry;
      { counters = List.sort by_name !cs; gauges = List.sort by_name !gs })

let unregister name = with_lock (fun () -> Hashtbl.remove registry name)

let reset () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | C c -> Array.iter (fun a -> Atomic.set a 0) c.c_cells
          | G g -> Atomic.set g.g_cell 0)
        registry)

(* --- exporters ------------------------------------------------------- *)

let escape b s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let json_obj b fields emit =
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      escape b name;
      Buffer.add_string b "\":";
      emit b v)
    fields;
  Buffer.add_char b '}'

let to_json snap =
  let b = Buffer.create 1024 in
  let int_emit b v = Buffer.add_string b (string_of_int v) in
  Buffer.add_string b "{\"counters\":";
  json_obj b snap.counters int_emit;
  Buffer.add_string b ",\"gauges\":";
  json_obj b snap.gauges int_emit;
  Buffer.add_char b '}';
  Buffer.contents b

(* Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*.  Map
   every out-of-charset byte to '_' and prefix '_' when the first byte
   is a digit, so arbitrary registry names (dots, slashes, unicode)
   always export as legal families. *)
let sanitize name =
  let ok_rest = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
    | _ -> false
  in
  let mapped = String.map (fun c -> if ok_rest c then c else '_') name in
  if mapped = "" then "_"
  else
    match mapped.[0] with '0' .. '9' -> "_" ^ mapped | _ -> mapped

let to_prometheus snap =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let n = sanitize name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    snap.counters;
  List.iter
    (fun (name, v) ->
      let n = sanitize name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %d\n" n n v))
    snap.gauges;
  Buffer.contents b
