(* Bench-side spans: recorded around the benchmark's own calls into each
   layer, kept in memory and written out once the run ends.  Every span
   carries its name, start, end, the span that caused it and the id of
   the request (one compile job, serve request or fuzz seed) it belongs
   to.  Disabled, [with_] is a plain call. *)

type t = {
  id : int;
  name : string;
  req : int;
  parent : int;  (** 0 for a request's root span *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let finished : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0
let cur_req = ref 0
let next_req = ref 0
let now = Resil.Clock.now

let with_ name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !open_ids with p :: _ -> p | [] -> 0 in
    let req = !cur_req in
    open_ids := id :: !open_ids;
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now () in
        open_ids := List.tl !open_ids;
        finished := { id; name; req; parent; t0; t1 } :: !finished)
  end

(* A span named by its outcome: [f] returns its result and the name. *)
let with_dyn f =
  if not !enabled then fst (f ())
  else begin
    let name = ref "unnamed" in
    let r = ref None in
    with_ "pending" (fun () ->
        let x, n = f () in
        name := n;
        r := Some x);
    (match !finished with
    | s :: rest -> finished := { s with name = !name } :: rest
    | [] -> ());
    Option.get !r
  end

(* One request: a fresh id shared by every span opened inside [f]. *)
let in_request f =
  incr next_req;
  let saved = !cur_req in
  cur_req := !next_req;
  Fun.protect ~finally:(fun () -> cur_req := saved) f

let reset () =
  finished := [];
  open_ids := [];
  next_id := 0;
  next_req := 0;
  cur_req := 0

let count () = List.length !finished

let total_seconds name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0.0 !finished

let calls name =
  List.fold_left (fun n s -> if s.name = name then n + 1 else n) 0 !finished

(* Self time per span name, in seconds: each span's duration minus the
   part of it its child spans cover (children never overlap: one
   client, pool width 1). *)
let self_seconds () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (Option.value (Hashtbl.find_opt child s.parent) ~default:0.0
          +. (s.t1 -. s.t0)))
    !finished;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d =
        s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0
      in
      Hashtbl.replace self s.name
        (Option.value (Hashtbl.find_opt self s.name) ~default:0.0 +. d))
    !finished;
  self

(* Cost of recording one span, measured on this host over [n] empty
   spans; leaves the recorder reset and disabled. *)
let calibrate ?(n = 20_000) () =
  enabled := true;
  let t0 = now () in
  for _ = 1 to n do
    with_ "calibrate" ignore
  done;
  let per_span = (now () -. t0) /. float_of_int n in
  enabled := false;
  reset ();
  per_span

let write path =
  let oc = open_out_bin path in
  output_string oc "[\n";
  let spans = List.rev !finished in
  let last = List.length spans - 1 in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"req\":%d,\"parent\":%d,\
         \"start_us\":%.3f,\"end_us\":%.3f}%s\n"
        s.id (Obs.Report.escape s.name) s.req s.parent
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. base) *. 1e6)
        (if i = last then "" else ","))
    spans;
  output_string oc "]\n";
  close_out oc
