(* C-family backend printer: CUDA, OpenCL and Metal.

   The three targets print one kernel shape (Sec. IV-C): per-filter
   work functions with the eq. (10)/(11) index maps, the region-offset
   helpers, the staging predicates and the per-SM switch of the
   predicated kernel-only software pipeline.  One walker prints all
   three; a dialect changes only surface details:

   - CUDA: [__device__]/[__global__]/[__shared__], float builtins
     spelled out (sinf, fabsf), ids from threadIdx/blockIdx,
     [__syncthreads()], and a host [main()] that allocates and launches.
   - OpenCL: [__kernel]/[__global]/[__local], overloaded builtins (sin,
     fabs), ids via get_local_id / get_group_id,
     [barrier(CLK_LOCAL_MEM_FENCE)].  Program-scope mutable state uses
     a [__global] variable, which requires OpenCL C 2.0 (noted in the
     emitted header).
   - Metal: [kernel]/[device]/[threadgroup] with [[buffer(n)]] binding
     attributes, ids via [[thread_position_in_threadgroup]] etc.,
     [threadgroup_barrier(mem_flags::mem_threadgroup)].  MSL has no
     program-scope mutable device storage, so filter state arrays are
     hoisted into extra kernel buffer parameters and threaded through
     to the work functions; the host must pre-initialize them (the
     initializers are listed in the emitted launch comment).

   Work-function bodies arrive decided ({!Lower.body}: pop order,
   temporaries, scope, types); the walker only spells them.

   Every emitted byte is pinned by the golden fixtures
   (test/fixtures/codegen/*.cu, *.cl, *.metal).  A change that moves
   an output regenerates them on purpose (dune build @codegen; dune
   promote) and bumps Cache.Key.compiler_version.  No GPU toolchain
   runs in CI: the structural linter, the KIR-eval oracle leg and a
   g++ syntax check of the work functions carry their correctness
   (see DESIGN.md §16). *)

open Streamit

type dialect = Cuda | Opencl | Metal

let ident = Ir.c_ident

let work_fn_name f = "work_" ^ ident f.Kernel.name

let c_ty = function Types.TInt -> "int" | Types.TFloat -> "float"

let c_value = function
  | Types.VInt n -> string_of_int n
  | Types.VFloat x ->
    let s = Printf.sprintf "%.9gf" x in
    (* ensure a decimal point so the f suffix parses *)
    if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
    then s
    else String.sub s 0 (String.length s - 1) ^ ".0f"

let unop_c dialect (op : Kernel.unop) arg =
  (* CUDA spells the float builtins out; OpenCL and Metal overload *)
  let math name =
    Printf.sprintf "%s%s(%s)" name (if dialect = Cuda then "f" else "") arg
  in
  match op with
  | Kernel.Neg -> Printf.sprintf "(-%s)" arg
  | Kernel.Not -> Printf.sprintf "(!%s)" arg
  | Kernel.BitNot -> Printf.sprintf "(~%s)" arg
  | Kernel.Sin -> math "sin"
  | Kernel.Cos -> math "cos"
  | Kernel.Sqrt -> math "sqrt"
  | Kernel.Exp -> math "exp"
  | Kernel.Log -> math "log"
  | Kernel.Abs -> math "fabs"
  | Kernel.ToFloat -> Printf.sprintf "((float)%s)" arg
  | Kernel.ToInt -> Printf.sprintf "((int)%s)" arg

let binop_c (op : Kernel.binop) a b =
  match op with
  | Kernel.Min | Kernel.Max ->
    Printf.sprintf "%s(%s, %s)" (Kernel.string_of_binop op) a b
  | _ -> Printf.sprintf "(%s %s %s)" a (Kernel.string_of_binop op) b

(* Qualifiers of device functions and of their read-side and
   write-side pointer parameters. *)
let fn_qual = function Cuda -> "static __device__ " | Opencl | Metal -> "static "

let in_ptr = function
  | Cuda -> "const "
  | Opencl -> "__global const "
  | Metal -> "const device "

let out_ptr = function Cuda -> "" | Opencl -> "__global " | Metal -> "device "

let array_ty values =
  match values with [||] -> "float" | _ -> c_ty (Types.ty_of_value values.(0))

let values_text values =
  String.concat ", " (Array.to_list (Array.map c_value values))

(* Filter state a work function takes as buffer parameters: Metal only,
   as (param name, elem ty, values). *)
let state_params dialect (f : Kernel.filter) =
  match dialect with
  | Cuda | Opencl -> []
  | Metal ->
    List.map
      (fun (sname, values) ->
        (ident f.Kernel.name ^ "_" ^ ident sname, array_ty values, values))
      f.Kernel.state

(* One work function: its tables (and, outside Metal, state) at program
   scope, then the body {!Lower.body} decided, spelled in C. *)
let spell_work_fn dialect ~style ~fn_name (f : Kernel.filter) body =
  let buf = Buffer.create 1024 in
  let table_prefix = ident f.Kernel.name ^ "_" in
  let global qual (name, values) =
    Buffer.add_string buf
      (Printf.sprintf "%s %s %s%s[%d] = { %s };\n" qual (array_ty values)
         table_prefix (ident name) (Array.length values) (values_text values))
  in
  List.iter
    (global
       (match dialect with
       | Cuda -> "__constant__"
       | Opencl -> "__constant"
       | Metal -> "constant"))
    f.Kernel.tables;
  (match dialect with
  | Cuda -> List.iter (global "__device__") f.Kernel.state
  | Opencl -> List.iter (global "__global") f.Kernel.state
  | Metal -> ());
  let in_ty = c_ty f.Kernel.in_ty and out_ty = c_ty f.Kernel.out_ty in
  let state_args =
    state_params dialect f
    |> List.map (fun (name, ty, _) -> Printf.sprintf ", device %s* %s" ty name)
    |> String.concat ""
  in
  Buffer.add_string buf
    (Printf.sprintf "%svoid %s(%s%s* in, %s%s* out, int tid%s)\n{\n"
       (fn_qual dialect) fn_name (in_ptr dialect) in_ty (out_ptr dialect)
       out_ty state_args);
  Buffer.add_string buf "  int _pop = 0;\n  int _push = 0;\n";
  let array_name a =
    if List.mem_assoc a f.Kernel.state then table_prefix ^ ident a else ident a
  in
  let index rate n = Ir.read_index style ~rate:(max 1 rate) ~n_expr:n in
  let rec expr = function
    | Kernel.Const v -> c_value v
    | Kernel.Var x -> ident x
    | Kernel.ArrayRef (a, i) -> Printf.sprintf "%s[%s]" (array_name a) (expr i)
    | Kernel.TableRef (t, i) ->
      Printf.sprintf "%s%s[%s]" table_prefix (ident t) (expr i)
    | Kernel.Pop -> Printf.sprintf "in[%s]" (index f.Kernel.pop_rate "_pop")
    | Kernel.Peek d ->
      Printf.sprintf "in[%s]"
        (index f.Kernel.pop_rate (Printf.sprintf "_pop + (%s)" (expr d)))
    | Kernel.Unop (op, e) -> unop_c dialect op (expr e)
    | Kernel.Binop (op, a, b) -> binop_c op (expr a) (expr b)
    | Kernel.Cond (c, a, b) ->
      Printf.sprintf "(%s ? %s : %s)" (expr c) (expr a) (expr b)
  in
  let rec stmt d s =
    let line fmt =
      Buffer.add_string buf (String.make (2 * (d + 1)) ' ');
      Printf.kbprintf (fun buf -> Buffer.add_char buf '\n') buf fmt
    in
    match s with
    | Ir.Local (x, ty, Some e) ->
      line "%s %s = %s;" (c_ty ty) (ident x) (expr e)
    | Ir.Local (x, ty, None) -> line "%s %s;" (c_ty ty) (ident x)
    | Ir.Pop t -> line "%s %s = %s; _pop++;" in_ty t (expr Kernel.Pop)
    | Ir.Set (x, e) -> line "%s = %s;" (ident x) (expr e)
    | Ir.Array (a, n) -> line "%s %s[%d] = {0};" out_ty (ident a) n
    | Ir.Store (a, i, e) ->
      line "%s[%s] = %s;" (array_name a) (expr i) (expr e)
    | Ir.Push e ->
      line "out[%s] = %s; _push++;" (index f.Kernel.push_rate "_push") (expr e)
    | Ir.If (c, th, el) ->
      line "if (%s) {" (expr c);
      List.iter (stmt (d + 1)) th;
      if el <> [] then begin
        line "} else {";
        List.iter (stmt (d + 1)) el
      end;
      line "}"
    | Ir.For (x, lo, hi, body) ->
      let x = ident x in
      line "for (int %s = %s; %s < %s; %s++) {" x (expr lo) x (expr hi) x;
      List.iter (stmt (d + 1)) body;
      line "}"
  in
  List.iter (stmt 0) body;
  Buffer.add_string buf "  (void)_pop; (void)_push;\n}\n";
  Buffer.contents buf

let work_fn dialect ?(style = Ir.Coalesced) ~fn_name f =
  spell_work_fn dialect ~style ~fn_name f (Lower.body f)

(* All state buffer params of the program, in work-function order — the
   order Metal appends them to the kernel signature. *)
let program_state_params dialect (p : Ir.program) =
  List.concat_map
    (fun (w : Ir.work_fn) -> state_params dialect w.Ir.w_filter)
    p.Ir.work_fns

(* The kernel signature and the [tid]/[sm] bindings. *)
let kernel_head dialect (p : Ir.program) =
  let ptrs =
    List.map
      (fun (b : Ir.buffer) -> out_ptr dialect ^ "float* " ^ b.Ir.b_name)
      (Array.to_list p.Ir.buffers)
    @ [ in_ptr dialect ^ "float* stream_in"; out_ptr dialect ^ "float* stream_out" ]
  in
  let keyword, params, sep, tid, sm =
    match dialect with
    | Cuda ->
      ("__global__", ptrs @ [ "int iterations" ], ", ", "threadIdx.x",
       "blockIdx.x")
    | Opencl ->
      ("__kernel", ptrs @ [ "int iterations" ], ", ", "(int)get_local_id(0)",
       "(int)get_group_id(0)")
    | Metal ->
      let state =
        List.map
          (fun (name, ty, _) -> Printf.sprintf "device %s* %s" ty name)
          (program_state_params dialect p)
      in
      ( "kernel",
        List.mapi
          (fun i param -> Printf.sprintf "%s [[buffer(%d)]]" param i)
          (ptrs @ [ "constant int& iterations" ] @ state)
        @ [ "uint tid_u [[thread_position_in_threadgroup]]";
            "uint sm_u [[threadgroup_position_in_grid]]" ],
        ",\n                       ",
        "(int)tid_u",
        "(int)sm_u" )
  in
  Printf.sprintf "%s void swp_kernel(%s)\n{\n  int tid = %s;\n  int sm = %s;\n"
    keyword (String.concat sep params) tid sm

(* The device side: work functions, then the kernel with its staging
   predicates and per-SM switch. *)
let kernel dialect (p : Ir.program) =
  let buf = Buffer.create 8192 in
  List.iter
    (fun (w : Ir.work_fn) ->
      Buffer.add_string buf
        (spell_work_fn dialect ~style:p.Ir.style ~fn_name:w.Ir.w_name
           w.Ir.w_filter w.Ir.w_body);
      Buffer.add_char buf '\n')
    p.Ir.work_fns;
  Buffer.add_string buf (kernel_head dialect p);
  let stages = p.Ir.stages in
  let shared_qual, barrier =
    match dialect with
    | Cuda -> ("__shared__", "__syncthreads();")
    | Opencl -> ("__local", "barrier(CLK_LOCAL_MEM_FENCE);")
    | Metal -> ("threadgroup", "threadgroup_barrier(mem_flags::mem_threadgroup);")
  in
  Buffer.add_string buf
    (Printf.sprintf
       "  /* staging predicates, one per pipeline stage (depth %d) */\n\
       \  %s int stage_on[%d];\n\
       \  if (tid == 0) for (int s = 0; s < %d; s++) stage_on[s] = 0;\n\
       \  %s\n"
       stages shared_qual stages stages barrier);
  Buffer.add_string buf
    (Printf.sprintf
       "  for (int it = 0; it < iterations + %d; it++) {\n\
       \    if (tid == 0) { for (int s = %d; s > 0; s--) stage_on[s] = \
        stage_on[s-1]; stage_on[0] = (it < iterations); }\n\
       \    %s\n"
       stages (stages - 1) barrier);
  Buffer.add_string buf "    switch (sm) {\n";
  let fn_of_node = Hashtbl.create 16 in
  List.iter
    (fun (w : Ir.work_fn) -> Hashtbl.replace fn_of_node w.Ir.w_node w)
    p.Ir.work_fns;
  List.iter
    (fun (c : Ir.sm_case) ->
      Buffer.add_string buf (Printf.sprintf "    case %d: {\n" c.Ir.sm);
      List.iter
        (fun (fr : Ir.fire) ->
          let w = Hashtbl.find fn_of_node fr.Ir.f_node in
          let state_args =
            state_params dialect w.Ir.w_filter
            |> List.map (fun (name, _, _) -> ", " ^ name)
            |> String.concat ""
          in
          Buffer.add_string buf
            (Printf.sprintf
               "      /* (%s, k=%d) o=%d f=%d threads=%d */\n\
               \      if (stage_on[%d] && tid < %d)\n\
               \        %s(%s + region_%d(it - %d), %s + region_%d(it - %d), \
                tid%s);\n"
               fr.Ir.f_name fr.Ir.f_k fr.Ir.f_o fr.Ir.f_stage fr.Ir.f_threads
               fr.Ir.f_stage fr.Ir.f_threads fr.Ir.f_fn w.Ir.w_in fr.Ir.f_node
               fr.Ir.f_stage w.Ir.w_out fr.Ir.f_node fr.Ir.f_stage state_args))
        c.Ir.fires;
      Buffer.add_string buf "      break; }\n")
    p.Ir.cases;
  Buffer.add_string buf "    }\n    /* II boundary */\n  }\n}\n";
  Buffer.contents buf

(* The host side: CUDA allocates and launches in [main()]; OpenCL and
   Metal get the launch as a comment. *)
let host dialect (p : Ir.program) =
  let buf = Buffer.create 1024 in
  (match dialect with
  | Cuda ->
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
      List.map fst p.Ir.allocs
      @ [ "stream_in"; "stream_out"; string_of_int p.Ir.iterations ]
    in
    Buffer.add_string buf
      (Printf.sprintf "  swp_kernel<<<%d, %d>>>(%s);\n" p.Ir.grid p.Ir.block
         (String.concat ", " args));
    Buffer.add_string buf "  cudaDeviceSynchronize();\n  return 0;\n}\n"
  | Opencl | Metal ->
    let api, launch, alloc =
      if dialect = Opencl then
        ( "OpenCL",
          Printf.sprintf "clEnqueueNDRangeKernel: global = %d x %d, local = %d"
            p.Ir.grid p.Ir.block p.Ir.block,
          "clCreateBuffer" )
      else
        ( "Metal",
          Printf.sprintf "dispatchThreadgroups: %d threadgroups x %d threads"
            p.Ir.grid p.Ir.block,
          "newBuffer" )
    in
    Buffer.add_string buf
      (Printf.sprintf "\n/* host launch (%s):\n *   %s\n" api launch);
    List.iter
      (fun (name, bytes) ->
        Buffer.add_string buf
          (Printf.sprintf " *   %s %s: %d bytes\n" alloc name bytes))
      p.Ir.allocs;
    Buffer.add_string buf
      (Printf.sprintf
         " *   stream_in/stream_out: 1 << 20 bytes, input shuffled per eq. \
          (9); iterations = %d\n"
         p.Ir.iterations);
    List.iter
      (fun (name, ty, values) ->
        Buffer.add_string buf
          (Printf.sprintf " *   pre-initialize %s (%s[%d]) = { %s }\n" name ty
             (Array.length values) (values_text values)))
      (program_state_params dialect p);
    Buffer.add_string buf " */\n");
  Buffer.contents buf

let print dialect (p : Ir.program) =
  let buf = Buffer.create 16384 in
  (* Provenance header: every artifact traces back to the schedule
     decision that produced it.  Deterministic fields only — the header
     must not break byte-identical serial-vs-parallel codegen. *)
  let h = p.Ir.header in
  Buffer.add_string buf
    (Printf.sprintf
       "/* streamit_gpu artifact%s\n\
       \ * quality: %s (%s)\n\
       \ * II: %d (lower bound %d, binding %s)\n\
       \ * schedule signature: %s\n"
       (match dialect with
       | Cuda -> ""
       | Opencl -> " (opencl)"
       | Metal -> " (metal)")
       h.Ir.h_quality h.Ir.h_rationale h.Ir.h_ii h.Ir.h_lower_bound
       h.Ir.h_binding h.Ir.h_signature);
  Buffer.add_string buf
    (match dialect with
    | Cuda -> " */\n#include <cuda_runtime.h>\n#include <cstdio>\n\n"
    | Opencl -> " * program-scope __global state requires OpenCL C 2.0\n */\n\n"
    | Metal -> " */\n#include <metal_stdlib>\nusing namespace metal;\n\n");
  (* per-node region-offset helpers: ring of (stages+1) steady-state
     regions indexed by iteration *)
  List.iter
    (fun (v, tokens) ->
      Buffer.add_string buf
        (Printf.sprintf
           "%sinline int region_%d(int it) { return ((it %% %d) + %d) %% %d \
            * %d; }\n"
           (fn_qual dialect) v p.Ir.ring p.Ir.ring p.Ir.ring tokens))
    p.Ir.regions;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (kernel dialect p);
  Buffer.add_string buf (host dialect p);
  Buffer.contents buf

(* A standalone CUDA profiling program for one filter (Fig. 6): its
   device function plus a kernel that fires it [numfirings] times and a
   host [main] that times the launch. *)
let profile_driver (f : Kernel.filter) ~numfirings =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "#include <cuda_runtime.h>\n#include <cstdio>\n\n";
  Buffer.add_string buf (work_fn Cuda ~fn_name:(work_fn_name f) f);
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
