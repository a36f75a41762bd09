(* Portable kernel IR (KIR) — core types (module Kir.Ir).

   The schedule -> code path used to be one generator that walked the
   compiled value and printed CUDA in one pass.  KIR splits that into

     Swp_core.Compile.compiled --Lower--> Kir.program --printer--> text

   so one lowering feeds four backend printers (CUDA, WGSL, OpenCL,
   Metal) and one direct evaluator ({!Eval}, the fuzzer's fourth
   oracle leg).  The IR captures exactly what the software-pipelined
   steady state of Sec. IV needs:

   - the launch shape (grid = SMs, block = threads);
   - one work function per graph node (filters, plus splitters and
     joiners converted to equivalent filters);
   - FIFO ring buffers with the eq. (9)-(11) coalesced index maps,
     described by their producer's (rate, threads, reps) so both the
     printers and the evaluator derive addresses from one place;
   - the staging predicates and per-SM fire lists of the modulo
     schedule (offset o, stage f per fire).

   Everything in the program is data — no closures, no references to
   the compiled value — so printing is a pure function and two lowers
   of the same schedule are structurally equal. *)

type target = Cuda | Wgsl | Opencl | Metal

let all_targets = [ Cuda; Wgsl; Opencl; Metal ]

let target_name = function
  | Cuda -> "cuda"
  | Wgsl -> "wgsl"
  | Opencl -> "opencl"
  | Metal -> "metal"

let target_of_string = function
  | "cuda" -> Some Cuda
  | "wgsl" -> Some Wgsl
  | "opencl" -> Some Opencl
  | "metal" -> Some Metal
  | _ -> None

(* Source-file extension per backend (fixture naming, CLI output). *)
let target_ext = function
  | Cuda -> "cu"
  | Wgsl -> "wgsl"
  | Opencl -> "cl"
  | Metal -> "metal"

(* Channel index style, Sec. IV-D: the coalesced shuffle of eq. (10)
   or the natural (thread-major) layout of the SWPNC scheme. *)
type index_style = Coalesced | Natural

(* A construct a backend cannot print.  Every KIR construct prints on
   every target, so nothing raises it; it stays for the callers (the
   perfbench fuzz workload) that classify failures by it. *)
exception Unsupported of string

(* Channel index expressions, Sec. IV-D: eq. (10)/(11) for the
   coalesced shuffle, thread-major for the natural layout.  The text is
   valid C and WGSL alike. *)
let read_index style ~rate ~n_expr =
  match style with
  | Coalesced ->
    Printf.sprintf "(128 * (%s) + (tid / 128) * 128 * %d + (tid %% 128))"
      n_expr rate
  | Natural -> Printf.sprintf "(tid * %d + (%s))" rate n_expr

(* Identifier mangling shared by every backend: all four targets have
   C-like identifier rules. *)
let c_ident name =
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf ch
      | _ -> Buffer.add_char buf '_')
    name;
  let s = Buffer.contents buf in
  if s = "" then "_anon"
  else if s.[0] >= '0' && s.[0] <= '9' then "_" ^ s
  else s

(* Where a fire's port reads from / writes to. *)
type chan_ref =
  | Chan of int  (** index into {!program.buffers} *)
  | External  (** the program input stream (reads) or output stream (writes) *)

(* One FIFO edge buffer.  The producer-side shape is enough to compute
   any address in the ring: token [s] of steady state [j] lives at
   [(j mod regions) * region_tokens + addr_of_token s]. *)
type buffer = {
  b_name : string;  (** emitted identifier, [buf_src_sp__dst_dp] *)
  b_src : int;
  b_src_port : int;
  b_dst : int;
  b_dst_port : int;
  b_elem : Streamit.Types.elem_ty;
  b_prod_rate : int;  (** tokens per producer thread-firing *)
  b_prod_threads : int;
  b_prod_reps : int;
  b_region_tokens : int;  (** one steady state: rate x threads x reps *)
  b_init : Streamit.Types.value list;  (** initial tokens, FIFO order *)
}

(* A work-function body as every backend prints it, decided once by
   {!Lower.body}.  Each pop is bound to a temporary in evaluation order
   (a peek that a later pop would overtake is bound before it); a
   conditional with a popping arm is an if/else assigning a temporary;
   each scalar is declared once, typed, in the block that holds its
   uses.  Expressions hold no [Pop] and no popping conditional, so a
   printer spells them in any order. *)
type stmt =
  | Local of string * Streamit.Types.elem_ty * Streamit.Kernel.expr option
      (** declare a scalar in this block, initialised or not *)
  | Pop of string  (** declare a temporary of the input type and pop into it *)
  | Set of string * Streamit.Kernel.expr
  | Array of string * int  (** zeroed local array of the output type *)
  | Store of string * Streamit.Kernel.expr * Streamit.Kernel.expr
  | Push of Streamit.Kernel.expr
  | If of Streamit.Kernel.expr * stmt list * stmt list
  | For of string * Streamit.Kernel.expr * Streamit.Kernel.expr * stmt list

(* The body as a filter work list, for the reference interpreter: the
   fuzzer's KIR-eval leg runs the order the kernels print. *)
let rec kernel_of_body body =
  List.concat_map
    (function
      | Local (_, _, None) -> []
      | Local (x, _, Some e) -> [ Streamit.Kernel.Let (x, e) ]
      | Pop t -> [ Streamit.Kernel.Let (t, Streamit.Kernel.Pop) ]
      | Set (x, e) -> [ Streamit.Kernel.Assign (x, e) ]
      | Array (a, n) -> [ Streamit.Kernel.DeclArray (a, n) ]
      | Store (a, i, e) -> [ Streamit.Kernel.ArrayAssign (a, i, e) ]
      | Push e -> [ Streamit.Kernel.Push e ]
      | If (c, a, b) ->
        [ Streamit.Kernel.If (c, kernel_of_body a, kernel_of_body b) ]
      | For (x, lo, hi, b) ->
        [ Streamit.Kernel.For (x, lo, hi, kernel_of_body b) ])
    body

(* One work function: the node's filter (splitters and joiners already
   converted to filters), its decided body, and the direct buffer
   references the pointer-free backends (WGSL) need. *)
type work_fn = {
  w_node : int;
  w_name : string;  (** schedule-local, collision-free *)
  w_filter : Streamit.Kernel.filter;  (** name, rates, types, tables, state *)
  w_body : stmt list;
  w_in : string;  (** port-0 input buffer name, or "stream_in" *)
  w_out : string;  (** port-0 output buffer name, or "stream_out" *)
}

(* One scheduled instance firing inside an SM's switch case. *)
type fire = {
  f_node : int;
  f_name : string;  (** display name, for the provenance comment *)
  f_k : int;  (** instance index within the node *)
  f_o : int;  (** start offset within the II *)
  f_stage : int;  (** pipeline stage *)
  f_threads : int;
  f_reps : int;
  f_fn : string;  (** work-function name to call *)
  f_kind : Streamit.Graph.node_kind;
  f_ins : chan_ref list;  (** by input port *)
  f_outs : chan_ref list;  (** by output port *)
}

type sm_case = { sm : int; fires : fire list }

(* Deterministic provenance header fields (PR 8 flight recorder). *)
type header = {
  h_quality : string;
  h_rationale : string;
  h_ii : int;
  h_lower_bound : int;
  h_binding : string;
  h_signature : string;
}

type program = {
  header : header;
  style : index_style;
  grid : int;  (** SMs = CUDA blocks / OpenCL work-groups / ... *)
  block : int;  (** threads per SM *)
  stages : int;  (** pipeline depth of the modulo schedule *)
  ring : int;  (** steady-state regions in the printed ring, stages+1 *)
  iterations : int;  (** host-side launch iteration count *)
  regions : (int * int) list;  (** per node: steady tokens of its out edge *)
  work_fns : work_fn list;  (** in node order *)
  buffers : buffer array;  (** in graph edge order *)
  cases : sm_case list;  (** non-empty SMs, ascending *)
  allocs : (string * int) list;  (** host allocations: buffer name, bytes *)
  io_in_ty : Streamit.Types.elem_ty;
  io_out_ty : Streamit.Types.elem_ty;
}

let buffer_of_chan (p : program) = function
  | Chan i -> Some p.buffers.(i)
  | External -> None

(* All fires of the program in global start-time order (o, then stage)
   — the (8a)/(8b) visibility order the evaluator executes in. *)
let ordered_fires (p : program) =
  List.stable_sort
    (fun a b -> compare (a.f_o, a.f_stage) (b.f_o, b.f_stage))
    (List.concat_map (fun c -> c.fires) p.cases)
