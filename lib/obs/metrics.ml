type labels = (string * string) list

(* Counters and gauges are single atomic cells, so concurrent updates
   from worker domains are lost-update-free without a lock on the hot
   path.  A histogram observation touches four fields that must stay
   mutually consistent (count/sum/min/max), so each histogram carries
   its own mutex; observations are rare enough (per solve, per seed)
   that the lock is invisible next to the work being measured. *)

type counter = int Atomic.t
type gauge = float Atomic.t

type histogram = {
  hm : Mutex.t;
  mutable n : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

type instrument = C of counter | G of gauge | H of histogram

(* One table keyed by (name, sorted labels); creation is get-or-create so
   handles bound at module-load time remain the registry's instruments.
   The table itself is mutex-guarded — creation and snapshots are cold
   paths. *)
let registry : (string * labels, instrument) Hashtbl.t = Hashtbl.create 64
let registry_m = Mutex.create ()

let canon labels = List.sort compare labels

let get_or_create name labels make =
  let key = (name, canon labels) in
  Mutex.lock registry_m;
  let i =
    match Hashtbl.find_opt registry key with
    | Some i -> i
    | None ->
      let i = make () in
      Hashtbl.add registry key i;
      i
  in
  Mutex.unlock registry_m;
  i

let counter ?(labels = []) name =
  match get_or_create name labels (fun () -> C (Atomic.make 0)) with
  | C c -> c
  | _ -> invalid_arg ("Metrics.counter: " ^ name ^ " registered as non-counter")

let gauge ?(labels = []) name =
  match get_or_create name labels (fun () -> G (Atomic.make 0.0)) with
  | G g -> g
  | _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " registered as non-gauge")

let histogram ?(labels = []) name =
  match
    get_or_create name labels (fun () ->
        H { hm = Mutex.create (); n = 0; sum = 0.0; mn = nan; mx = nan })
  with
  | H h -> h
  | _ ->
    invalid_arg ("Metrics.histogram: " ^ name ^ " registered as non-histogram")

let inc c = Atomic.incr c
let add c d = ignore (Atomic.fetch_and_add c d)
let set g v = Atomic.set g v

let observe h v =
  Mutex.lock h.hm;
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  h.mn <- (if h.n = 1 then v else Float.min h.mn v);
  h.mx <- (if h.n = 1 then v else Float.max h.mx v);
  Mutex.unlock h.hm

let value c = Atomic.get c
let gauge_value g = Atomic.get g

let with_hist h f =
  Mutex.lock h.hm;
  let v = f h in
  Mutex.unlock h.hm;
  v

let hist_count h = with_hist h (fun h -> h.n)
let hist_sum h = with_hist h (fun h -> h.sum)
let hist_min h = with_hist h (fun h -> h.mn)
let hist_max h = with_hist h (fun h -> h.mx)

type snapshot_item = {
  name : string;
  labels : labels;
  kind :
    [ `Counter of int
    | `Gauge of float
    | `Histogram of int * float * float * float ];
}

let snapshot () =
  Mutex.lock registry_m;
  let items =
    Hashtbl.fold
      (fun (name, labels) inst acc ->
        let kind =
          match inst with
          | C c -> `Counter (Atomic.get c)
          | G g -> `Gauge (Atomic.get g)
          | H h ->
            `Histogram (with_hist h (fun h -> (h.n, h.sum, h.mn, h.mx)))
        in
        { name; labels; kind } :: acc)
      registry []
  in
  Mutex.unlock registry_m;
  List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels)) items

let reset () =
  Mutex.lock registry_m;
  Hashtbl.iter
    (fun _ inst ->
      match inst with
      | C c -> Atomic.set c 0
      | G g -> Atomic.set g 0.0
      | H h ->
        Mutex.lock h.hm;
        h.n <- 0;
        h.sum <- 0.0;
        h.mn <- nan;
        h.mx <- nan;
        Mutex.unlock h.hm)
    registry;
  Mutex.unlock registry_m

let labels_suffix labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

let json_num = Canon.json

let to_json () =
  let item it =
    let kind =
      match it.kind with
      | `Counter v -> [ ("type", Report.Str "counter"); ("value", Report.Int v) ]
      | `Gauge v -> [ ("type", Report.Str "gauge"); ("value", Report.Float v) ]
      | `Histogram (n, sum, mn, mx) ->
        [
          ("type", Report.Str "histogram");
          ("count", Report.Int n);
          ("sum", Report.Float sum);
          ("min", Report.Float mn);
          ("max", Report.Float mx);
        ]
    in
    Report.Obj
      ([
         ("name", Report.Str it.name);
         ( "labels",
           Report.Obj (List.map (fun (k, v) -> (k, Report.Str v)) it.labels) );
       ]
      @ kind)
  in
  Report.to_string
    (Report.Obj [ ("metrics", Report.Arr (List.map item (snapshot ()))) ])

let pp_text fmt () =
  List.iter
    (fun it ->
      let id = it.name ^ labels_suffix it.labels in
      match it.kind with
      | `Counter v -> Format.fprintf fmt "%-44s %d@." id v
      | `Gauge v -> Format.fprintf fmt "%-44s %g@." id v
      | `Histogram (n, sum, mn, mx) ->
        if n = 0 then Format.fprintf fmt "%-44s count=0@." id
        else
          Format.fprintf fmt "%-44s count=%d sum=%g min=%g max=%g@." id n sum
            mn mx)
    (snapshot ())
