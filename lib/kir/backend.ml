(* Backend dispatch: one lowered program, two printers (the C family
   in three dialects, and WGSL). *)

let emit (t : Ir.target) (p : Ir.program) =
  match t with
  | Ir.Cuda -> Print_c.print Print_c.Cuda p
  | Ir.Wgsl -> Print_wgsl.print p
  | Ir.Opencl -> Print_c.print Print_c.Opencl p
  | Ir.Metal -> Print_c.print Print_c.Metal p

let m_lines = Obs.Metrics.counter "cudagen.lines"
let m_filters = Obs.Metrics.counter "cudagen.filters"

(* Lower once, print one target, inside the "codegen" span.  The
   counters keep their historical "cudagen." names; they count every
   target's output lines. *)
let emit_compiled (t : Ir.target) (c : Swp_core.Compile.compiled) =
  Obs.Trace.with_span "codegen" @@ fun () ->
  let src = emit t (Lower.lower c) in
  let rec count_lines i n =
    match String.index_from_opt src i '\n' with
    | Some j -> count_lines (j + 1) (n + 1)
    | None -> n
  in
  let lines = count_lines 0 0 in
  let filters = Array.length c.Swp_core.Compile.graph.Streamit.Graph.nodes in
  Obs.Metrics.add m_lines lines;
  Obs.Metrics.add m_filters filters;
  Obs.Trace.add_attr "lines" (Obs.Trace.Int lines);
  Obs.Trace.add_attr "filters" (Obs.Trace.Int filters);
  src

(* Emit and structurally lint in one step. *)
let emit_checked (t : Ir.target) (p : Ir.program) =
  let src = emit t p in
  match Lint.check t p src with
  | Ok () -> Ok src
  | Error e -> Error (Printf.sprintf "%s: %s" (Ir.target_name t) e)
