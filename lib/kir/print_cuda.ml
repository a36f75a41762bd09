(* CUDA backend printer.

   This is the historical one-pass CUDA text generator, re-driven by a
   lowered {!Ir.program}, plus the per-filter profiling driver.  Its output is
   pinned byte-for-byte against the pre-refactor generator by the
   golden fixtures (test/fixtures/codegen/*.cu) — change nothing here
   without regenerating them on purpose. *)

open Streamit

let c_ident = Ir.c_ident

let work_fn_name f = "work_" ^ c_ident f.Kernel.name

let c_ty = function Types.TInt -> "int" | Types.TFloat -> "float"

let c_value = function
  | Types.VInt n -> string_of_int n
  | Types.VFloat x ->
    let s = Printf.sprintf "%.9gf" x in
    (* ensure a decimal point so the f suffix parses *)
    if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
    then s
    else String.sub s 0 (String.length s - 1) ^ ".0f"

(* Channel index expressions, Sec. IV-D. *)
let read_index (style : Ir.index_style) ~rate ~n_expr =
  match style with
  | Ir.Coalesced ->
    Printf.sprintf "(128 * (%s) + (tid / 128) * 128 * %d + (tid %% 128))"
      n_expr rate
  | Ir.Natural -> Printf.sprintf "(tid * %d + (%s))" rate n_expr

let unop_c (op : Kernel.unop) arg =
  match op with
  | Kernel.Neg -> Printf.sprintf "(-%s)" arg
  | Kernel.Not -> Printf.sprintf "(!%s)" arg
  | Kernel.BitNot -> Printf.sprintf "(~%s)" arg
  | Kernel.Sin -> Printf.sprintf "sinf(%s)" arg
  | Kernel.Cos -> Printf.sprintf "cosf(%s)" arg
  | Kernel.Sqrt -> Printf.sprintf "sqrtf(%s)" arg
  | Kernel.Exp -> Printf.sprintf "expf(%s)" arg
  | Kernel.Log -> Printf.sprintf "logf(%s)" arg
  | Kernel.Abs -> Printf.sprintf "fabsf(%s)" arg
  | Kernel.ToFloat -> Printf.sprintf "((float)%s)" arg
  | Kernel.ToInt -> Printf.sprintf "((int)%s)" arg

let binop_c (op : Kernel.binop) a b =
  let inf s = Printf.sprintf "(%s %s %s)" a s b in
  match op with
  | Kernel.Add -> inf "+"
  | Kernel.Sub -> inf "-"
  | Kernel.Mul -> inf "*"
  | Kernel.Div -> inf "/"
  | Kernel.Mod -> inf "%"
  | Kernel.BitAnd -> inf "&"
  | Kernel.BitOr -> inf "|"
  | Kernel.BitXor -> inf "^"
  | Kernel.Shl -> inf "<<"
  | Kernel.Shr -> inf ">>"
  | Kernel.Eq -> inf "=="
  | Kernel.Ne -> inf "!="
  | Kernel.Lt -> inf "<"
  | Kernel.Le -> inf "<="
  | Kernel.Gt -> inf ">"
  | Kernel.Ge -> inf ">="
  | Kernel.Min -> Printf.sprintf "min(%s, %s)" a b
  | Kernel.Max -> Printf.sprintf "max(%s, %s)" a b

(* Statement-level lowering.  [emit_stmt] returns lines; pops encountered
   in an expression are hoisted into fresh temporaries first (in
   left-to-right evaluation order), so the emitted C never relies on C's
   unspecified evaluation order. *)
let c_of_filter ?(style = Ir.Coalesced) ?fn_name (f : Kernel.filter) =
  let fn_name = match fn_name with Some n -> n | None -> work_fn_name f in
  let buf = Buffer.create 1024 in
  let table_prefix = c_ident f.Kernel.name ^ "_" in
  (* constant tables *)
  List.iter
    (fun (tname, values) ->
      let ty =
        match values with
        | [||] -> "float"
        | _ -> c_ty (Types.ty_of_value values.(0))
      in
      Buffer.add_string buf
        (Printf.sprintf "__constant__ %s %s%s[%d] = { " ty table_prefix
           (c_ident tname) (Array.length values));
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (c_value v))
        values;
      Buffer.add_string buf " };\n")
    f.Kernel.tables;
  (* persistent state lives in (mutable) device memory *)
  List.iter
    (fun (sname, values) ->
      let ty =
        match values with
        | [||] -> "float"
        | _ -> c_ty (Types.ty_of_value values.(0))
      in
      Buffer.add_string buf
        (Printf.sprintf "__device__ %s %s%s[%d] = { " ty table_prefix
           (c_ident sname) (Array.length values));
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (c_value v))
        values;
      Buffer.add_string buf " };\n")
    f.Kernel.state;
  let in_ty = c_ty f.Kernel.in_ty and out_ty = c_ty f.Kernel.out_ty in
  Buffer.add_string buf
    (Printf.sprintf
       "static __device__ void %s(const %s* in, %s* out, int tid)\n{\n"
       fn_name in_ty out_ty);
  Buffer.add_string buf "  int _pop = 0;\n  int _push = 0;\n";
  let tmp_counter = ref 0 in
  let fresh_tmp () =
    incr tmp_counter;
    Printf.sprintf "_t%d" !tmp_counter
  in
  let indent d = String.make (2 * (d + 1)) ' ' in
  (* Lower an expression to a C expression string, appending hoisted pop
     temporaries to [pre] (a list of lines, reversed). *)
  let rec lower ~in_cond pre = function
    | Kernel.Const v -> (pre, c_value v)
    | Kernel.Var x -> (pre, c_ident x)
    | Kernel.ArrayRef (a, i) ->
      let pre, ci = lower ~in_cond pre i in
      let name =
        if List.mem_assoc a f.Kernel.state then table_prefix ^ c_ident a
        else c_ident a
      in
      (pre, Printf.sprintf "%s[%s]" name ci)
    | Kernel.TableRef (t, i) ->
      let pre, ci = lower ~in_cond pre i in
      (pre, Printf.sprintf "%s%s[%s]" table_prefix (c_ident t) ci)
    | Kernel.Pop ->
      if in_cond then
        raise (Ir.Unsupported "pop() inside a conditional-expression arm");
      let t = fresh_tmp () in
      let idx = read_index style ~rate:(max 1 f.Kernel.pop_rate) ~n_expr:"_pop" in
      let line =
        Printf.sprintf "%s %s = in[%s]; _pop++;" in_ty t idx
      in
      (line :: pre, t)
    | Kernel.Peek d ->
      let pre, cd = lower ~in_cond pre d in
      let idx =
        read_index style ~rate:(max 1 f.Kernel.pop_rate)
          ~n_expr:(Printf.sprintf "_pop + (%s)" cd)
      in
      (pre, Printf.sprintf "in[%s]" idx)
    | Kernel.Unop (op, e) ->
      let pre, ce = lower ~in_cond pre e in
      (pre, unop_c op ce)
    | Kernel.Binop (op, a, b) ->
      let pre, ca = lower ~in_cond pre a in
      let pre, cb = lower ~in_cond pre b in
      (pre, binop_c op ca cb)
    | Kernel.Cond (c, a, b) ->
      let pre, cc = lower ~in_cond pre c in
      let pre, ca = lower ~in_cond:true pre a in
      let pre, cb = lower ~in_cond:true pre b in
      (pre, Printf.sprintf "(%s ? %s : %s)" cc ca cb)
  in
  let flush_pre d pre =
    List.iter
      (fun line -> Buffer.add_string buf (indent d ^ line ^ "\n"))
      (List.rev pre)
  in
  let declared = Hashtbl.create 16 in
  let rec stmt d s =
    match s with
    | Kernel.Let (x, e) ->
      let pre, ce = lower ~in_cond:false [] e in
      flush_pre d pre;
      let x' = c_ident x in
      if Hashtbl.mem declared x' then
        Buffer.add_string buf (Printf.sprintf "%s%s = %s;\n" (indent d) x' ce)
      else begin
        Hashtbl.replace declared x' ();
        (* infer a C type: float unless the expression is integral *)
        let ty =
          let rec is_int = function
            | Kernel.Const (Types.VInt _) -> true
            | Kernel.Const (Types.VFloat _) -> false
            | Kernel.Pop | Kernel.Peek _ -> f.Kernel.in_ty = Types.TInt
            | Kernel.Var _ -> false (* conservatively float *)
            | Kernel.ArrayRef _ -> false
            | Kernel.TableRef _ -> false
            | Kernel.Unop (Kernel.ToInt, _) -> true
            | Kernel.Unop (Kernel.ToFloat, _) -> false
            | Kernel.Unop (_, e) -> is_int e
            | Kernel.Binop ((Kernel.Eq | Kernel.Ne | Kernel.Lt | Kernel.Le
                            | Kernel.Gt | Kernel.Ge), _, _) -> true
            | Kernel.Binop ((Kernel.BitAnd | Kernel.BitOr | Kernel.BitXor
                            | Kernel.Shl | Kernel.Shr | Kernel.Mod), _, _) ->
              true
            | Kernel.Binop (_, a, b) -> is_int a && is_int b
            | Kernel.Cond (_, a, b) -> is_int a && is_int b
          in
          if is_int e then "int" else "float"
        in
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s = %s;\n" (indent d) ty x' ce)
      end
    | Kernel.Assign (x, e) ->
      let pre, ce = lower ~in_cond:false [] e in
      flush_pre d pre;
      Buffer.add_string buf
        (Printf.sprintf "%s%s = %s;\n" (indent d) (c_ident x) ce)
    | Kernel.DeclArray (a, n) ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s %s[%d] = {0};\n" (indent d) out_ty (c_ident a) n)
    | Kernel.ArrayAssign (a, i, e) ->
      let pre, ci = lower ~in_cond:false [] i in
      let pre, ce = lower ~in_cond:false pre e in
      flush_pre d pre;
      let aname =
        if List.mem_assoc a f.Kernel.state then table_prefix ^ c_ident a
        else c_ident a
      in
      Buffer.add_string buf
        (Printf.sprintf "%s%s[%s] = %s;\n" (indent d) aname ci ce)
    | Kernel.Push e ->
      let pre, ce = lower ~in_cond:false [] e in
      flush_pre d pre;
      let idx =
        read_index style ~rate:(max 1 f.Kernel.push_rate) ~n_expr:"_push"
      in
      Buffer.add_string buf
        (Printf.sprintf "%sout[%s] = %s; _push++;\n" (indent d) idx ce)
    | Kernel.If (c, th, el) ->
      let pre, cc = lower ~in_cond:false [] c in
      flush_pre d pre;
      Buffer.add_string buf (Printf.sprintf "%sif (%s) {\n" (indent d) cc);
      List.iter (stmt (d + 1)) th;
      if el <> [] then begin
        Buffer.add_string buf (Printf.sprintf "%s} else {\n" (indent d));
        List.iter (stmt (d + 1)) el
      end;
      Buffer.add_string buf (Printf.sprintf "%s}\n" (indent d))
    | Kernel.For (x, lo, hi, body) ->
      let pre, clo = lower ~in_cond:false [] lo in
      let pre, chi = lower ~in_cond:false pre hi in
      flush_pre d pre;
      let x' = c_ident x in
      Buffer.add_string buf
        (Printf.sprintf "%sfor (int %s = %s; %s < %s; %s++) {\n" (indent d) x'
           clo x' chi x');
      List.iter (stmt (d + 1)) body;
      Buffer.add_string buf (Printf.sprintf "%s}\n" (indent d))
  in
  List.iter (stmt 0) f.Kernel.work;
  Buffer.add_string buf "  (void)_pop; (void)_push;\n}\n";
  Buffer.contents buf

let work_functions (p : Ir.program) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (w : Ir.work_fn) ->
      Buffer.add_string buf
        (c_of_filter ~style:p.Ir.style ~fn_name:w.Ir.w_name w.Ir.w_filter);
      Buffer.add_char buf '\n')
    p.Ir.work_fns;
  Buffer.contents buf

(* The device kernel: work functions, staging predicates, per-SM switch. *)
let kernel (p : Ir.program) =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (work_functions p);
  let stages = p.Ir.stages in
  (* buffer parameters: one pointer per channel plus the I/O streams *)
  let params =
    (List.map
       (fun (b : Ir.buffer) -> Printf.sprintf "float* %s" b.Ir.b_name)
       (Array.to_list p.Ir.buffers)
    @ [ "const float* stream_in"; "float* stream_out"; "int iterations" ])
    |> String.concat ", "
  in
  Buffer.add_string buf
    (Printf.sprintf "__global__ void swp_kernel(%s)\n{\n" params);
  Buffer.add_string buf "  int tid = threadIdx.x;\n";
  Buffer.add_string buf "  int sm = blockIdx.x;\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  /* staging predicates, one per pipeline stage (depth %d) */\n\
       \  __shared__ int stage_on[%d];\n\
       \  if (tid == 0) for (int s = 0; s < %d; s++) stage_on[s] = 0;\n\
       \  __syncthreads();\n"
       stages stages stages);
  Buffer.add_string buf
    (Printf.sprintf
       "  for (int it = 0; it < iterations + %d; it++) {\n\
       \    if (tid == 0) { for (int s = %d; s > 0; s--) stage_on[s] = \
        stage_on[s-1]; stage_on[0] = (it < iterations); }\n\
       \    __syncthreads();\n"
       stages (stages - 1));
  Buffer.add_string buf "    switch (sm) {\n";
  let fn_io = Hashtbl.create 16 in
  List.iter
    (fun (w : Ir.work_fn) ->
      Hashtbl.replace fn_io w.Ir.w_node (w.Ir.w_in, w.Ir.w_out))
    p.Ir.work_fns;
  List.iter
    (fun (c : Ir.sm_case) ->
      Buffer.add_string buf (Printf.sprintf "    case %d: {\n" c.Ir.sm);
      List.iter
        (fun (f : Ir.fire) ->
          let in_buf, out_buf = Hashtbl.find fn_io f.Ir.f_node in
          Buffer.add_string buf
            (Printf.sprintf
               "      /* (%s, k=%d) o=%d f=%d threads=%d */\n\
                \      if (stage_on[%d] && tid < %d)\n\
                \        %s(%s + region_%d(it - %d), %s + region_%d(it - \
                %d), tid);\n"
               f.Ir.f_name f.Ir.f_k f.Ir.f_o f.Ir.f_stage f.Ir.f_threads
               f.Ir.f_stage f.Ir.f_threads f.Ir.f_fn in_buf f.Ir.f_node
               f.Ir.f_stage out_buf f.Ir.f_node f.Ir.f_stage))
        c.Ir.fires;
      Buffer.add_string buf "      break; }\n")
    p.Ir.cases;
  Buffer.add_string buf "    }\n    /* II boundary */\n  }\n}\n";
  Buffer.contents buf

let print (p : Ir.program) =
  let buf = Buffer.create 16384 in
  (* Provenance header: every artifact traces back to the schedule
     decision that produced it.  Deterministic fields only — the header
     must not break byte-identical serial-vs-parallel codegen. *)
  let h = p.Ir.header in
  Buffer.add_string buf
    (Printf.sprintf
       "/* streamit_gpu artifact\n\
       \ * quality: %s (%s)\n\
       \ * II: %d (lower bound %d, binding %s)\n\
       \ * schedule signature: %s\n\
       \ */\n"
       h.Ir.h_quality h.Ir.h_rationale h.Ir.h_ii h.Ir.h_lower_bound
       h.Ir.h_binding h.Ir.h_signature);
  Buffer.add_string buf "#include <cuda_runtime.h>\n#include <cstdio>\n\n";
  (* per-node region-offset helpers: ring of (stages+1) steady-state
     regions indexed by iteration *)
  List.iter
    (fun (v, tokens) ->
      Buffer.add_string buf
        (Printf.sprintf
           "static __device__ inline int region_%d(int it) { return ((it %% \
            %d) + %d) %% %d * %d; }\n"
           v p.Ir.ring p.Ir.ring p.Ir.ring tokens))
    p.Ir.regions;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (kernel p);
  (* host side *)
  Buffer.add_string buf "\nint main()\n{\n";
  List.iter
    (fun (name, bytes) ->
      Buffer.add_string buf
        (Printf.sprintf "  float* %s; cudaMalloc(&%s, %d);\n" name name bytes))
    p.Ir.allocs;
  Buffer.add_string buf
    "  float *stream_in, *stream_out;\n\
     \  /* input shuffled on the host per eq. (9) before upload */\n\
     \  cudaMalloc(&stream_in, 1 << 20);\n\
     \  cudaMalloc(&stream_out, 1 << 20);\n";
  let args =
    (List.map (fun (name, _) -> name) p.Ir.allocs
    @ [ "stream_in"; "stream_out"; string_of_int p.Ir.iterations ])
    |> String.concat ", "
  in
  Buffer.add_string buf
    (Printf.sprintf "  swp_kernel<<<%d, %d>>>(%s);\n" p.Ir.grid p.Ir.block
       args);
  Buffer.add_string buf "  cudaDeviceSynchronize();\n  return 0;\n}\n";
  Buffer.contents buf

(* A standalone profiling program for one filter (Fig. 6): its device
   function plus a kernel that fires it [numfirings] times and a host
   [main] that times the launch. *)
let profile_driver (f : Kernel.filter) ~numfirings =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "#include <cuda_runtime.h>\n#include <cstdio>\n\n";
  Buffer.add_string buf (c_of_filter f);
  Buffer.add_string buf
    (Printf.sprintf
       "\n\
        __global__ void profile_kernel(const float* in, float* out)\n\
        {\n\
       \  int tid = threadIdx.x;\n\
       \  int iters = %d / blockDim.x;\n\
       \  for (int i = 0; i < iters; i++)\n\
       \    %s(in, out, tid);\n\
        }\n\n"
       numfirings (work_fn_name f));
  Buffer.add_string buf
    (Printf.sprintf
       "int main(int argc, char** argv)\n\
        {\n\
       \  int threads = argc > 1 ? atoi(argv[1]) : 128;\n\
       \  float *in, *out;\n\
       \  cudaMalloc(&in, %d * sizeof(float));\n\
       \  cudaMalloc(&out, %d * sizeof(float));\n\
       \  cudaEvent_t start, stop;\n\
       \  cudaEventCreate(&start); cudaEventCreate(&stop);\n\
       \  cudaEventRecord(start);\n\
       \  profile_kernel<<<1, threads>>>(in, out);\n\
       \  cudaEventRecord(stop);\n\
       \  cudaEventSynchronize(stop);\n\
       \  float ms = 0;\n\
       \  cudaEventElapsedTime(&ms, start, stop);\n\
       \  printf(\"%%f\\n\", ms);\n\
       \  return 0;\n\
        }\n"
       (numfirings * max 1 f.Kernel.peek_rate)
       (numfirings * max 1 f.Kernel.push_rate));
  Buffer.contents buf
