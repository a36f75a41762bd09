(* WGSL backend printer.

   WGSL (WebGPU) is the most restrictive of the four targets, so it
   drives the IR's portability constraints:

   - no pointers into storage buffers as function parameters, so each
     work function is specialized against its node's actual buffers
     ([w_in]/[w_out] from the lowering) and takes only integer bases;
   - [workgroupBarrier()] must sit in uniform control flow, so every
     barrier is emitted at loop level, never under a [tid] guard (the
     structural linter enforces this);
   - [switch] requires a [default] clause;
   - comparisons yield [bool], not [int]: value-position comparisons
     become [select(0, 1, cmp)], condition positions stay boolean;
   - shift amounts must be [u32].

   Channel buffers are declared as [array<f32>] storage regardless of
   element type (matching the CUDA backend's all-[float*] channel
   parameters); integer filters convert on access. *)

open Streamit

let ident = Ir.c_ident

let ty_name = function Types.TInt -> "i32" | Types.TFloat -> "f32"

let value_str = function
  | Types.VInt n -> string_of_int n
  | Types.VFloat x ->
    let s = Printf.sprintf "%.9g" x in
    let s =
      if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
      then s
      else s ^ ".0"
    in
    s ^ "f"

(* One specialized work function: the body {!Lower.body} decided,
   spelled in WGSL. *)
let fn_of_filter ~style ~fn_name ~src ~dst (f : Kernel.filter) body =
  let buf = Buffer.create 1024 in
  let table_prefix = ident f.Kernel.name ^ "_" in
  let array_name a =
    if List.mem_assoc a f.Kernel.state then table_prefix ^ ident a else ident a
  in
  let index rate n = Ir.read_index style ~rate:(max 1 rate) ~n_expr:n in
  let read n =
    let e = Printf.sprintf "%s[in_base + %s]" src (index f.Kernel.pop_rate n) in
    match f.Kernel.in_ty with
    | Types.TInt -> Printf.sprintf "i32(%s)" e
    | Types.TFloat -> e
  in
  Buffer.add_string buf
    (Printf.sprintf "fn %s(in_base: i32, out_base: i32, tid: i32) {\n" fn_name);
  Buffer.add_string buf "  var _pop: i32 = 0;\n  var _push: i32 = 0;\n";
  (* [value] spells a value-position (int/float) expression, [cond] a
     condition-position (bool) one. *)
  let rec value = function
    | Kernel.Const v -> value_str v
    | Kernel.Var x -> ident x
    | Kernel.ArrayRef (a, i) -> Printf.sprintf "%s[%s]" (array_name a) (value i)
    | Kernel.TableRef (t, i) ->
      Printf.sprintf "%s%s[%s]" table_prefix (ident t) (value i)
    | Kernel.Pop -> read "_pop"
    | Kernel.Peek d -> read (Printf.sprintf "_pop + (%s)" (value d))
    | Kernel.Unop (op, e) -> (
      let call name = Printf.sprintf "%s(%s)" name (value e) in
      match op with
      | Kernel.Not -> Printf.sprintf "select(1, 0, %s)" (cond e)
      | Kernel.Neg -> Printf.sprintf "(-%s)" (value e)
      | Kernel.BitNot -> Printf.sprintf "(~%s)" (value e)
      | Kernel.Sin -> call "sin"
      | Kernel.Cos -> call "cos"
      | Kernel.Sqrt -> call "sqrt"
      | Kernel.Exp -> call "exp"
      | Kernel.Log -> call "log"
      | Kernel.Abs -> call "abs"
      | Kernel.ToFloat -> call "f32"
      | Kernel.ToInt -> call "i32")
    | Kernel.Binop (op, a, b) as e -> (
      let sym = Kernel.string_of_binop op in
      match op with
      | Kernel.Eq | Kernel.Ne | Kernel.Lt | Kernel.Le | Kernel.Gt | Kernel.Ge ->
        Printf.sprintf "select(0, 1, %s)" (cond e)
      | Kernel.Shl | Kernel.Shr ->
        Printf.sprintf "(%s %s u32(%s))" (value a) sym (value b)
      | Kernel.Min | Kernel.Max ->
        Printf.sprintf "%s(%s, %s)" sym (value a) (value b)
      | _ -> Printf.sprintf "(%s %s %s)" (value a) sym (value b))
    | Kernel.Cond (c, a, b) ->
      Printf.sprintf "select(%s, %s, %s)" (value b) (value a) (cond c)
  and cond = function
    | Kernel.Binop
        ( ((Kernel.Eq | Kernel.Ne | Kernel.Lt | Kernel.Le | Kernel.Gt
           | Kernel.Ge) as op),
          a,
          b ) ->
      Printf.sprintf "(%s %s %s)" (value a) (Kernel.string_of_binop op)
        (value b)
    | Kernel.Unop (Kernel.Not, e) -> Printf.sprintf "(!%s)" (cond e)
    | e -> Printf.sprintf "(%s != 0)" (value e)
  in
  let rec stmt d s =
    let line fmt =
      Buffer.add_string buf (String.make (2 * (d + 1)) ' ');
      Printf.kbprintf (fun buf -> Buffer.add_char buf '\n') buf fmt
    in
    match s with
    | Ir.Local (x, ty, Some e) ->
      line "var %s: %s = %s;" (ident x) (ty_name ty) (value e)
    | Ir.Local (x, ty, None) -> line "var %s: %s;" (ident x) (ty_name ty)
    | Ir.Pop t ->
      line "let %s: %s = %s; _pop++;" t (ty_name f.Kernel.in_ty)
        (value Kernel.Pop)
    | Ir.Set (x, e) -> line "%s = %s;" (ident x) (value e)
    | Ir.Array (a, n) ->
      line "var %s: array<%s, %d>;" (ident a) (ty_name f.Kernel.out_ty)
        (max 1 n)
    | Ir.Store (a, i, e) ->
      line "%s[%s] = %s;" (array_name a) (value i) (value e)
    | Ir.Push e ->
      line "%s[out_base + %s] = f32(%s); _push++;" dst
        (index f.Kernel.push_rate "_push") (value e)
    | Ir.If (c, th, el) ->
      line "if %s {" (cond c);
      List.iter (stmt (d + 1)) th;
      if el <> [] then begin
        line "} else {";
        List.iter (stmt (d + 1)) el
      end;
      line "}"
    | Ir.For (x, lo, hi, body) ->
      let x = ident x in
      line "for (var %s: i32 = %s; %s < %s; %s++) {" x (value lo) x (value hi)
        x;
      List.iter (stmt (d + 1)) body;
      line "}"
  in
  List.iter (stmt 0) body;
  Buffer.add_string buf "  _ = _pop;\n  _ = _push;\n}\n";
  Buffer.contents buf

(* Module-scope tables and state for one filter.  WGSL has no mutable
   module-scope storage outside var<private>/var<workgroup>; state
   arrays become var<private> (per-invocation — see the quirks table in
   DESIGN.md §16). *)
let globals_of_filter (f : Kernel.filter) =
  let buf = Buffer.create 256 in
  let table_prefix = ident f.Kernel.name ^ "_" in
  let emit_array kind name values =
    let ty =
      match values with
      | [||] -> "f32"
      | _ -> ty_name (Types.ty_of_value values.(0))
    in
    let n = max 1 (Array.length values) in
    if Array.length values = 0 then
      Buffer.add_string buf
        (Printf.sprintf "var<%s> %s%s: array<%s, %d>;\n" kind table_prefix
           (ident name) ty n)
    else begin
      Buffer.add_string buf
        (Printf.sprintf "var<%s> %s%s: array<%s, %d> = array<%s, %d>(" kind
           table_prefix (ident name) ty n ty n);
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (value_str v))
        values;
      Buffer.add_string buf ");\n"
    end
  in
  List.iter (fun (t, vs) -> emit_array "private" t vs) f.Kernel.tables;
  List.iter (fun (s, vs) -> emit_array "private" s vs) f.Kernel.state;
  Buffer.contents buf

let print (p : Ir.program) =
  let buf = Buffer.create 16384 in
  let h = p.Ir.header in
  Buffer.add_string buf
    (Printf.sprintf
       "// streamit_gpu artifact (wgsl)\n\
        // quality: %s (%s)\n\
        // II: %d (lower bound %d, binding %s)\n\
        // schedule signature: %s\n"
       h.Ir.h_quality h.Ir.h_rationale h.Ir.h_ii h.Ir.h_lower_bound
       h.Ir.h_binding h.Ir.h_signature);
  Buffer.add_string buf
    (Printf.sprintf
       "// dispatch: %d workgroups x %d threads; host loops handled by the \
        iterations uniform\n\n"
       p.Ir.grid p.Ir.block);
  (* storage bindings: channel buffers, then the I/O streams, then the
     iteration count *)
  let n_bufs = Array.length p.Ir.buffers in
  Array.iteri
    (fun i (b : Ir.buffer) ->
      Buffer.add_string buf
        (Printf.sprintf
           "@group(0) @binding(%d) var<storage, read_write> %s: array<f32>;\n"
           i b.Ir.b_name))
    p.Ir.buffers;
  Buffer.add_string buf
    (Printf.sprintf
       "@group(0) @binding(%d) var<storage, read> stream_in: array<f32>;\n"
       n_bufs);
  Buffer.add_string buf
    (Printf.sprintf
       "@group(0) @binding(%d) var<storage, read_write> stream_out: \
        array<f32>;\n"
       (n_bufs + 1));
  Buffer.add_string buf
    (Printf.sprintf "@group(0) @binding(%d) var<uniform> iterations: i32;\n\n"
       (n_bufs + 2));
  Buffer.add_string buf
    (Printf.sprintf "var<workgroup> stage_on: array<i32, %d>;\n\n" p.Ir.stages);
  (* per-node region-offset helpers *)
  List.iter
    (fun (v, tokens) ->
      Buffer.add_string buf
        (Printf.sprintf
           "fn region_%d(it: i32) -> i32 { return ((it %% %d) + %d) %% %d * \
            %d; }\n"
           v p.Ir.ring p.Ir.ring p.Ir.ring tokens))
    p.Ir.regions;
  Buffer.add_char buf '\n';
  (* filter globals, then the specialized work functions *)
  List.iter
    (fun (w : Ir.work_fn) ->
      let g = globals_of_filter w.Ir.w_filter in
      if g <> "" then begin
        Buffer.add_string buf g;
        Buffer.add_char buf '\n'
      end;
      Buffer.add_string buf
        (fn_of_filter ~style:p.Ir.style ~fn_name:w.Ir.w_name ~src:w.Ir.w_in
           ~dst:w.Ir.w_out w.Ir.w_filter w.Ir.w_body);
      Buffer.add_char buf '\n')
    p.Ir.work_fns;
  (* the software-pipelined kernel *)
  Buffer.add_string buf
    (Printf.sprintf "@compute @workgroup_size(%d, 1, 1)\n" p.Ir.block);
  Buffer.add_string buf
    "fn swp_kernel(@builtin(local_invocation_id) lid: vec3<u32>,\n\
    \              @builtin(workgroup_id) wid: vec3<u32>) {\n";
  Buffer.add_string buf
    "  let tid: i32 = i32(lid.x);\n  let sm: i32 = i32(wid.x);\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  // staging predicates, one per pipeline stage (depth %d)\n\
       \  if tid == 0 { for (var s: i32 = 0; s < %d; s++) { stage_on[s] = 0; \
        } }\n\
       \  workgroupBarrier();\n"
       p.Ir.stages p.Ir.stages);
  Buffer.add_string buf
    (Printf.sprintf
       "  for (var it: i32 = 0; it < iterations + %d; it++) {\n\
       \    if tid == 0 {\n\
       \      for (var s: i32 = %d; s > 0; s--) { stage_on[s] = \
        stage_on[s-1]; }\n\
       \      stage_on[0] = select(0, 1, it < iterations);\n\
       \    }\n\
       \    workgroupBarrier();\n"
       p.Ir.stages (p.Ir.stages - 1));
  Buffer.add_string buf "    switch sm {\n";
  List.iter
    (fun (c : Ir.sm_case) ->
      Buffer.add_string buf (Printf.sprintf "      case %d: {\n" c.Ir.sm);
      List.iter
        (fun (f : Ir.fire) ->
          Buffer.add_string buf
            (Printf.sprintf
               "        // (%s, k=%d) o=%d f=%d threads=%d\n\
               \        if stage_on[%d] != 0 && tid < %d {\n\
               \          %s(region_%d(it - %d), region_%d(it - %d), tid);\n\
               \        }\n"
               f.Ir.f_name f.Ir.f_k f.Ir.f_o f.Ir.f_stage f.Ir.f_threads
               f.Ir.f_stage f.Ir.f_threads f.Ir.f_fn f.Ir.f_node f.Ir.f_stage
               f.Ir.f_node f.Ir.f_stage))
        c.Ir.fires;
      Buffer.add_string buf "      }\n")
    p.Ir.cases;
  Buffer.add_string buf "      default: {}\n    }\n";
  Buffer.add_string buf
    "    // II boundary\n    workgroupBarrier();\n  }\n}\n";
  Buffer.contents buf
