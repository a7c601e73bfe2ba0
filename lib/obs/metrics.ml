(* One atomic cell per metric.  Every writer is the serve select loop
   or a codec call on its caller's domain, so a cell is not contended;
   [fetch_and_add] still totals exactly if several domains write. *)
type counter = int Atomic.t
type gauge = int Atomic.t
type metric = C of counter | G of gauge

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let register name ~kind ~wrap ~cast =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match cast m with
          | Some a -> a
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Ds_obs.Metrics: %S already registered as a different kind \
                    (wanted %s)"
                   name kind))
      | None ->
          let a = Atomic.make 0 in
          Hashtbl.add registry name (wrap a);
          a)

let counter name =
  register name ~kind:"counter" ~wrap:(fun a -> C a) ~cast:(function C a -> Some a | G _ -> None)

let gauge name =
  register name ~kind:"gauge" ~wrap:(fun a -> G a) ~cast:(function G a -> Some a | C _ -> None)

let incr c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c n)
let set g v = if Atomic.get enabled_flag then Atomic.set g v
let value c = Atomic.get c

type snapshot = { counters : (string * int) list; gauges : (string * int) list }

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  with_lock (fun () ->
      let cs = ref [] and gs = ref [] in
      Hashtbl.iter
        (fun name -> function
          | C c -> cs := (name, Atomic.get c) :: !cs
          | G g -> gs := (name, Atomic.get g) :: !gs)
        registry;
      { counters = List.sort by_name !cs; gauges = List.sort by_name !gs })

let reset () =
  with_lock (fun () ->
      Hashtbl.iter (fun _ -> function C a | G a -> Atomic.set a 0) registry)

(* --- exporters ------------------------------------------------------- *)

let to_json snap =
  let ints l = Ds_util.Json.Obj (List.map (fun (name, v) -> (name, Ds_util.Json.int v)) l) in
  Ds_util.Json.Obj [ ("counters", ints snap.counters); ("gauges", ints snap.gauges) ]

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
