(* Lowering: Swp_core schedules + buffer layouts -> KIR.

   Everything the printers and the evaluator need is computed here,
   once, so the backends cannot drift from each other: buffer naming,
   work-function naming and bodies ({!body}), per-SM fire ordering and
   the provenance header are all decided in this pass.

   Byte-compatibility invariant: driving the CUDA printer with the
   lowered program reproduces the historical one-pass generator's
   output byte for byte on every benchmark (pinned by the golden
   fixtures under test/fixtures/codegen/), so the lowering must keep
   the same orderings the one-pass generator used — work functions in
   node order, buffers in graph edge order, fires grouped by SM and
   stably sorted by start offset.

   Name generation is schedule-local: the [used] table below is fresh
   per [lower] call, so compiling two graphs in one process can never
   leak a suffix from one into the other (the PR 4 gensym lesson). *)

open Streamit
module C = Swp_core.Compile

let splitter_filter (sp : Ast.splitter) branches =
  match sp with
  | Ast.Duplicate ->
    let body =
      Kernel.Build.(
        [ let_ "x" pop ]
        @ List.init branches (fun _ -> push (v "x")))
    in
    Kernel.make_filter ~name:"duplicate_splitter" ~pop:1 ~push:branches body
  | Ast.Round_robin ws ->
    let sum = List.fold_left ( + ) 0 ws in
    let body = List.init sum (fun _ -> Kernel.Push Kernel.Pop) in
    Kernel.make_filter ~name:"rr_splitter" ~pop:sum ~push:sum body

let joiner_filter ws =
  let sum = List.fold_left ( + ) 0 ws in
  let body = List.init sum (fun _ -> Kernel.Push Kernel.Pop) in
  Kernel.make_filter ~name:"rr_joiner" ~pop:sum ~push:sum body

let filter_of_node (node : Graph.node) =
  match node.Graph.kind with
  | Graph.NFilter f -> Kernel.rename (fun x -> x) { f with name = node.Graph.name }
  | Graph.NSplitter (sp, k) ->
    { (splitter_filter sp k) with Kernel.name = node.Graph.name }
  | Graph.NJoiner ws -> { (joiner_filter ws) with Kernel.name = node.Graph.name }

let style_of (c : C.compiled) =
  match c.C.scheme with
  | C.Swp_coalesced -> Ir.Coalesced
  | C.Swp_non_coalesced -> Ir.Natural

let buffer_name (e : Graph.edge) =
  Printf.sprintf "buf_%d_%d__%d_%d" e.Graph.src e.Graph.src_port e.Graph.dst
    e.Graph.dst_port

(* Schedule-local fresh-name table: the base name wins on first claim;
   later collisions get a deterministic numeric suffix. *)
let namer () =
  let used = Hashtbl.create 16 in
  fun base ->
    if not (Hashtbl.mem used base) then begin
      Hashtbl.add used base ();
      base
    end
    else begin
      let rec pick n =
        let cand = Printf.sprintf "%s_%d" base n in
        if Hashtbl.mem used cand then pick (n + 1)
        else begin
          Hashtbl.add used cand ();
          cand
        end
      in
      pick 2
    end

(* Every decision about a work-function body, made once for all four
   printers and the evaluator ({!Ir.stmt}):

   - types: a scalar is int unless some value it is given is float,
     settled to a fixpoint over the filter's lets and assignments; loop
     indices are int, pops and peeks have the input type, local arrays
     the output type, tables and state the type of their first value;
   - order: pops are hoisted into temporaries [_tN] in left-to-right
     evaluation order, and a pop-free subexpression that reads a peek
     is bound first when a later pop of the same statement would move
     the read cursor under it;
   - conditionals: a [?:] with a popping arm becomes an if/else that
     assigns a temporary, its arms' hoisted statements inside each
     branch, so only the taken arm consumes input;
   - scope: a [let] declares its scalar unless an enclosing block
     already does (then it assigns).  [Kernel.check_filter] keeps every
     use inside the declaring block. *)
let body (f : Kernel.filter) =
  let open Kernel in
  let elem values =
    if values = [||] then Types.TFloat else Types.ty_of_value values.(0)
  in
  let scalars = Hashtbl.create 16 and arrays = Hashtbl.create 8 in
  List.iter (fun (a, values) -> Hashtbl.replace arrays a (elem values)) f.state;
  let find tbl x =
    Option.value ~default:Types.TFloat (Hashtbl.find_opt tbl x)
  in
  let join a b = if a = Types.TInt then b else Types.TFloat in
  let rec ty = function
    | Const v -> Types.ty_of_value v
    | Var x -> find scalars x
    | ArrayRef (a, _) -> find arrays a
    | TableRef (t, _) -> (
      match List.assoc_opt t f.tables with
      | Some values -> elem values
      | None -> Types.TFloat)
    | Pop | Peek _ -> f.in_ty
    | Unop ((Neg | Abs), e) -> ty e
    | Unop ((Not | BitNot | ToInt), _) -> Types.TInt
    | Unop ((Sin | Cos | Sqrt | Exp | Log | ToFloat), _) -> Types.TFloat
    | Binop ((Add | Sub | Mul | Div | Min | Max), a, b) | Cond (_, a, b) ->
      join (ty a) (ty b)
    | Binop (_, _, _) -> Types.TInt
  in
  let sets = ref [] in
  let rec scan = function
    | Let (x, e) | Assign (x, e) ->
      sets := (x, e) :: !sets;
      Hashtbl.replace scalars x Types.TInt
    | DeclArray (a, _) -> Hashtbl.replace arrays a f.out_ty
    | For (x, _, _, b) ->
      Hashtbl.replace scalars x Types.TInt;
      List.iter scan b
    | If (_, a, b) ->
      List.iter scan a;
      List.iter scan b
    | ArrayAssign _ | Push _ -> ()
  in
  List.iter scan f.work;
  let rec settle () =
    let demote changed (x, e) =
      if Hashtbl.find scalars x = Types.TInt && ty e = Types.TFloat then begin
        Hashtbl.replace scalars x Types.TFloat;
        true
      end
      else changed
    in
    if List.fold_left demote false !sets then settle ()
  in
  settle ();
  let rec has p e =
    p e
    || match e with
       | Const _ | Var _ | Pop -> false
       | ArrayRef (_, e) | TableRef (_, e) | Peek e | Unop (_, e) -> has p e
       | Binop (_, a, b) -> has p a || has p b
       | Cond (c, a, b) -> has p c || has p a || has p b
  in
  let pops = has (function Pop -> true | _ -> false) in
  let peeks = has (function Peek _ -> true | _ -> false) in
  let n = ref 0 in
  let rec fresh () =
    incr n;
    let t = Printf.sprintf "_t%d" !n in
    if Hashtbl.mem scalars t || Hashtbl.mem arrays t then fresh () else t
  in
  let bind pre e =
    let t = fresh () in
    (Ir.Local (t, ty e, Some e) :: pre, Var t)
  in
  (* [expr ~later pre e] is [e] with its pops hoisted onto [pre] (a
     reversed statement list); [later] says a pop is hoisted onto [pre]
     after [e] is read. *)
  let rec expr ~later pre e =
    if not (pops e) then if later && peeks e then bind pre e else (pre, e)
    else
      match e with
      | Const _ | Var _ -> (pre, e)
      | ArrayRef (a, i) ->
        let pre, i = expr ~later pre i in
        (pre, ArrayRef (a, i))
      | TableRef (t, i) ->
        let pre, i = expr ~later pre i in
        (pre, TableRef (t, i))
      | Pop ->
        let t = fresh () in
        (Ir.Pop t :: pre, Var t)
      | Peek d ->
        let pre, d = expr ~later pre d in
        if later then bind pre (Peek d) else (pre, Peek d)
      | Unop (op, a) ->
        let pre, a = expr ~later pre a in
        (pre, Unop (op, a))
      | Binop (op, a, b) ->
        let pre, a = expr ~later:(later || pops b) pre a in
        let pre, b = expr ~later pre b in
        (pre, Binop (op, a, b))
      | Cond (c, a, b) when pops a || pops b ->
        let pre, c = expr ~later:false pre c in
        let arm_a = expr ~later:false [] a in
        let arm_b = expr ~later:false [] b in
        let t = fresh () in
        let branch (pre, v) = List.rev (Ir.Set (t, v) :: pre) in
        let decl = Ir.Local (t, ty e, None) in
        (Ir.If (c, branch arm_a, branch arm_b) :: decl :: pre, Var t)
      | Cond (c, a, b) ->
        let pre, c = expr ~later pre c in
        let pre, a = expr ~later pre a in
        let pre, b = expr ~later pre b in
        (pre, Cond (c, a, b))
  in
  let hoist e = expr ~later:false [] e in
  let rec block scope = function
    | [] -> []
    | s :: rest ->
      let pre, s, scope =
        match s with
        | Let (x, e) when not (List.mem x scope) ->
          let pre, e = hoist e in
          (pre, Ir.Local (x, find scalars x, Some e), x :: scope)
        | Let (x, e) | Assign (x, e) ->
          let pre, e = hoist e in
          (pre, Ir.Set (x, e), scope)
        | DeclArray (a, n) -> ([], Ir.Array (a, n), scope)
        | ArrayAssign (a, i, e) ->
          let pre, i = expr ~later:(pops e) [] i in
          let pre, e = expr ~later:false pre e in
          (pre, Ir.Store (a, i, e), scope)
        | Push e ->
          let pre, e = hoist e in
          (pre, Ir.Push e, scope)
        | If (c, th, el) ->
          let pre, c = hoist c in
          let th = block scope th in
          (pre, Ir.If (c, th, block scope el), scope)
        | For (x, lo, hi, b) ->
          let pre, lo = expr ~later:(pops hi) [] lo in
          let pre, hi = expr ~later:false pre hi in
          (pre, Ir.For (x, lo, hi, block scope b), scope)
      in
      List.rev_append pre (s :: block scope rest)
  in
  block [] f.work

let lower (c : C.compiled) : Ir.program =
  let g = c.C.graph in
  let cfg = c.C.config in
  let sched = c.C.schedule in
  let sizing = c.C.sizing in
  let stats = c.C.search_stats in
  let stages = Swp_core.Swp_schedule.stages sched in
  let header =
    {
      Ir.h_quality = C.quality_name c.C.quality;
      h_rationale = C.rationale_name c.C.prov.C.rationale;
      h_ii = stats.Swp_core.Ii_search.achieved_ii;
      h_lower_bound = stats.Swp_core.Ii_search.lower_bound;
      h_binding = stats.Swp_core.Ii_search.bounds.Swp_core.Mii.binding;
      h_signature = Swp_core.Report.schedule_signature c;
    }
  in
  (* buffers, in graph edge order *)
  let buffers =
    Array.of_list
      (List.map
         (fun (e : Graph.edge) ->
           let prod_rate = Graph.production g e in
           let prod_threads = cfg.Swp_core.Select.threads.(e.Graph.src) in
           let prod_reps = cfg.Swp_core.Select.reps.(e.Graph.src) in
           let elem =
             match (Graph.node g e.Graph.src).Graph.kind with
             | Graph.NFilter f -> f.Kernel.out_ty
             | Graph.NSplitter _ | Graph.NJoiner _ -> (
               (* splitters/joiners forward tokens; type comes from the
                  consumer side *)
               match (Graph.node g e.Graph.dst).Graph.kind with
               | Graph.NFilter f -> f.Kernel.in_ty
               | _ -> Streamit.Types.TFloat)
           in
           {
             Ir.b_name = buffer_name e;
             b_src = e.Graph.src;
             b_src_port = e.Graph.src_port;
             b_dst = e.Graph.dst;
             b_dst_port = e.Graph.dst_port;
             b_elem = elem;
             b_prod_rate = prod_rate;
             b_prod_threads = prod_threads;
             b_prod_reps = prod_reps;
             b_region_tokens = prod_rate * prod_threads * prod_reps;
             b_init = e.Graph.init_values;
           })
         g.Graph.edges)
  in
  let chan_index = Hashtbl.create 16 in
  Array.iteri
    (fun i (b : Ir.buffer) ->
      Hashtbl.replace chan_index (b.Ir.b_src, b.Ir.b_src_port, b.Ir.b_dst,
                                  b.Ir.b_dst_port) i)
    buffers;
  let chan_of_edge (e : Graph.edge) =
    Ir.Chan
      (Hashtbl.find chan_index
         (e.Graph.src, e.Graph.src_port, e.Graph.dst, e.Graph.dst_port))
  in
  (* work functions, in node order, with schedule-local names *)
  let fresh = namer () in
  let fn_names =
    Array.map
      (fun (node : Graph.node) ->
        fresh ("work_" ^ Ir.c_ident node.Graph.name))
      g.Graph.nodes
  in
  let port0_in v =
    match Graph.in_edges g v with
    | e :: _ -> buffer_name e
    | [] -> "stream_in"
  in
  let port0_out v =
    match Graph.out_edges g v with
    | e :: _ -> buffer_name e
    | [] -> "stream_out"
  in
  let work_fns =
    Array.to_list
      (Array.map
         (fun (node : Graph.node) ->
           let v = node.Graph.id in
           let f = filter_of_node node in
           {
             Ir.w_node = v;
             w_name = fn_names.(v);
             w_filter = f;
             w_body = body f;
             w_in = port0_in v;
             w_out = port0_out v;
           })
         g.Graph.nodes)
  in
  (* per-node region steady tokens (the region_<v> helpers) *)
  let regions =
    Array.to_list
      (Array.map
         (fun (node : Graph.node) ->
           let v = node.Graph.id in
           let tokens =
             match Graph.out_edges g v with
             | e :: _ -> Swp_core.Buffer_layout.steady_tokens g cfg e
             | [] -> 0
           in
           (v, tokens))
         g.Graph.nodes)
  in
  (* fires grouped by SM exactly as the one-pass generator did: entries
     consed per SM (reversing schedule order), then stably sorted by
     start offset *)
  let fire_of_entry (e : Swp_core.Swp_schedule.entry) =
    let v = e.Swp_core.Swp_schedule.inst.Swp_core.Instances.node in
    let node = Graph.node g v in
    let ins =
      List.init (Graph.in_arity node) (fun p ->
          match
            List.find_opt
              (fun (ed : Graph.edge) -> ed.Graph.dst_port = p)
              (Graph.in_edges g v)
          with
          | Some ed -> chan_of_edge ed
          | None -> Ir.External)
    in
    let outs =
      List.init (Graph.out_arity node) (fun p ->
          match
            List.find_opt
              (fun (ed : Graph.edge) -> ed.Graph.src_port = p)
              (Graph.out_edges g v)
          with
          | Some ed -> chan_of_edge ed
          | None -> Ir.External)
    in
    {
      Ir.f_node = v;
      f_name = node.Graph.name;
      f_k = e.Swp_core.Swp_schedule.inst.Swp_core.Instances.k;
      f_o = e.Swp_core.Swp_schedule.o;
      f_stage = e.Swp_core.Swp_schedule.f;
      f_threads = cfg.Swp_core.Select.threads.(v);
      f_reps = cfg.Swp_core.Select.reps.(v);
      f_fn = fn_names.(v);
      f_kind = node.Graph.kind;
      f_ins = ins;
      f_outs = outs;
    }
  in
  let by_sm = Array.make sched.Swp_core.Swp_schedule.num_sms [] in
  List.iter
    (fun (e : Swp_core.Swp_schedule.entry) ->
      by_sm.(e.Swp_core.Swp_schedule.sm) <-
        e :: by_sm.(e.Swp_core.Swp_schedule.sm))
    sched.Swp_core.Swp_schedule.entries;
  let cases = ref [] in
  Array.iteri
    (fun sm entries ->
      if entries <> [] then begin
        let ordered =
          List.sort
            (fun (a : Swp_core.Swp_schedule.entry) b ->
              compare a.Swp_core.Swp_schedule.o b.Swp_core.Swp_schedule.o)
            entries
        in
        cases := { Ir.sm; fires = List.map fire_of_entry ordered } :: !cases
      end)
    by_sm;
  let allocs =
    List.map
      (fun ((e : Graph.edge), bytes) -> (buffer_name e, bytes))
      sizing.Swp_core.Buffer_layout.per_edge
  in
  let io_ty pick = function
    | None -> Streamit.Types.TFloat
    | Some v -> pick (filter_of_node (Graph.node g v))
  in
  {
    Ir.header;
    style = style_of c;
    grid = sched.Swp_core.Swp_schedule.num_sms;
    block = cfg.Swp_core.Select.block_threads;
    stages;
    ring = stages + 1;
    iterations = 1024;
    regions;
    work_fns;
    buffers;
    cases = List.rev !cases;
    allocs;
    io_in_ty = io_ty (fun f -> f.Kernel.in_ty) g.Graph.entry;
    io_out_ty = io_ty (fun f -> f.Kernel.out_ty) g.Graph.exit_;
  }
