(* Direct execution of a lowered {!Ir.program} — the fuzzer's fourth
   oracle leg.

   This interprets the IR the backends print: the same ring-buffer
   address maps (eqs. (9)-(11) via [Buffer_layout.addr_of_token]), the
   same staging discipline (kernel iteration [w] runs stage [f]'s fires
   on steady state [w - f]), the same per-SM fire lists, the same
   decided work-function bodies (pops in the printed order).  It shares no
   code with [Swp_core.Funcsim] (which walks the compiled value), so a
   lowering bug that drops or misaddresses a buffer shows up as a
   divergence against the interpreter even though both backends print
   syntactically plausible kernels.

   Fidelity note: like [Funcsim], the ring here has [stages + 2]
   regions while the printed kernels use [stages + 1]; the extra
   region keeps producer/consumer of the same kernel iteration from
   aliasing under the evaluator's sequential fire order.  The printed
   ring is safe because real execution overlaps stages within one
   barrier interval; see DESIGN.md §16. *)

open Streamit
open Types

exception Uninitialized_read of string

type chan = {
  cbuf : Ir.buffer;
  inst_tokens : int;  (* one producer instance: rate x threads *)
  init : value array;
  regions : int;
  store : value option array;
}

let addr_of_produced ch s =
  let iter = s / ch.cbuf.Ir.b_region_tokens in
  let within = s mod ch.cbuf.Ir.b_region_tokens in
  let inst = within / ch.inst_tokens in
  let off = within mod ch.inst_tokens in
  ((iter mod ch.regions) * ch.cbuf.Ir.b_region_tokens)
  + (inst * ch.inst_tokens)
  + Swp_core.Buffer_layout.addr_of_token ~push_rate:ch.cbuf.Ir.b_prod_rate
      ~threads:ch.cbuf.Ir.b_prod_threads off

let write_chan ch s v = ch.store.(addr_of_produced ch s) <- Some v

(* [c] is in *consumed* stream coordinates: initial tokens first. *)
let read_chan ch c =
  if c < Array.length ch.init then ch.init.(c)
  else begin
    let s = c - Array.length ch.init in
    match ch.store.(addr_of_produced ch s) with
    | Some v -> v
    | None ->
      raise
        (Uninitialized_read
           (Printf.sprintf "buffer %s token %d" ch.cbuf.Ir.b_name s))
  end

let run (p : Ir.program) ~input ~iters =
  let regions = p.Ir.stages + 2 in
  let chans =
    Array.map
      (fun (b : Ir.buffer) ->
        {
          cbuf = b;
          inst_tokens = b.Ir.b_prod_rate * b.Ir.b_prod_threads;
          init = Array.of_list b.Ir.b_init;
          regions;
          store = Array.make (regions * b.Ir.b_region_tokens) None;
        })
      p.Ir.buffers
  in
  let chan = function
    | Ir.Chan i -> Some chans.(i)
    | Ir.External -> None
  in
  (* per-node lowered filter running its decided body, the statement
     order the kernels print *)
  let filters = Hashtbl.create 16 in
  List.iter
    (fun (w : Ir.work_fn) ->
      Hashtbl.replace filters w.Ir.w_node
        { w.Ir.w_filter with Kernel.work = Ir.kernel_of_body w.Ir.w_body })
    p.Ir.work_fns;
  let exit_node =
    List.find_map
      (fun (w : Ir.work_fn) ->
        if w.Ir.w_out = "stream_out" then Some w.Ir.w_node else None)
      p.Ir.work_fns
  in
  (* threads/reps per node, read off any of its fires *)
  let shape = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.fire) ->
      Hashtbl.replace shape f.Ir.f_node (f.Ir.f_threads, f.Ir.f_reps))
    (List.concat_map (fun c -> c.Ir.fires) p.Ir.cases);
  let out_tokens_per_iter =
    match exit_node with
    | None -> 0
    | Some v ->
      let f = Hashtbl.find filters v in
      let threads, reps = Hashtbl.find shape v in
      f.Kernel.push_rate * threads * reps
  in
  let out_tape = Array.make (max 1 (out_tokens_per_iter * iters)) None in
  let node_state = Hashtbl.create 8 in
  List.iter
    (fun (w : Ir.work_fn) ->
      if Kernel.is_stateful w.Ir.w_filter then
        Hashtbl.replace node_state w.Ir.w_node
          (List.map
             (fun (n, a) -> (n, Array.copy a))
             w.Ir.w_filter.Kernel.state))
    p.Ir.work_fns;
  (* Execute one thread-firing of fire [fr] (instance (v, k)) in steady
     state [j]. *)
  let fire_thread (fr : Ir.fire) j tid =
    let v = fr.Ir.f_node in
    let threads = fr.Ir.f_threads in
    let reps = fr.Ir.f_reps in
    let in_base r = ((j * reps) + fr.Ir.f_k) * (r * threads) + (tid * r) in
    let out_base r = in_base r in
    let port_ref l port =
      match List.nth_opt l port with Some c -> c | None -> Ir.External
    in
    let read_port port r n =
      match chan (port_ref fr.Ir.f_ins port) with
      | Some ch -> read_chan ch (in_base r + n)
      | None -> input (in_base r + n)
    in
    let write_port port r n value =
      match chan (port_ref fr.Ir.f_outs port) with
      | Some ch -> write_chan ch (out_base r + n) value
      | None ->
        let idx = out_base r + n in
        if idx < Array.length out_tape then out_tape.(idx) <- Some value
    in
    match fr.Ir.f_kind with
    | Graph.NFilter _ ->
      let f = Hashtbl.find filters v in
      let pops = ref 0 in
      let pushes = ref 0 in
      let state =
        match Hashtbl.find_opt node_state v with Some s -> s | None -> []
      in
      Interp.exec_filter_firing ~state f
        ~pop:(fun () ->
          let value = read_port 0 f.Kernel.pop_rate !pops in
          incr pops;
          value)
        ~peek:(fun d -> read_port 0 f.Kernel.pop_rate (!pops + d))
        ~push:(fun value ->
          write_port 0 f.Kernel.push_rate !pushes value;
          incr pushes)
    | Graph.NSplitter (Ast.Duplicate, branches) ->
      let v0 = read_port 0 1 0 in
      for port = 0 to branches - 1 do
        write_port port 1 0 v0
      done
    | Graph.NSplitter (Ast.Round_robin ws, _) ->
      let sum = List.fold_left ( + ) 0 ws in
      let consumed = ref 0 in
      List.iteri
        (fun port w ->
          for n = 0 to w - 1 do
            write_port port w n (read_port 0 sum !consumed);
            incr consumed
          done)
        ws
    | Graph.NJoiner ws ->
      let sum = List.fold_left ( + ) 0 ws in
      let produced = ref 0 in
      List.iteri
        (fun port w ->
          for n = 0 to w - 1 do
            write_port 0 sum !produced (read_port port w n);
            incr produced
          done)
        ws
  in
  let ordered = Ir.ordered_fires p in
  for w = 0 to iters + p.Ir.stages - 1 do
    List.iter
      (fun (fr : Ir.fire) ->
        let j = w - fr.Ir.f_stage in
        if j >= 0 && j < iters then
          for tid = 0 to fr.Ir.f_threads - 1 do
            fire_thread fr j tid
          done)
      ordered
  done;
  if out_tokens_per_iter = 0 then []
  else
    List.init (out_tokens_per_iter * iters) (fun i ->
        match out_tape.(i) with
        | Some v -> v
        | None ->
          raise
            (Uninitialized_read
               (Printf.sprintf "output token %d never written" i)))
