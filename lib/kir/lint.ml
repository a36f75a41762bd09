(* Per-backend structural linter.

   No GPU toolchain exists in CI, so the emitted kernels can never be
   compiled there.  This linter is the cheap stand-in: it rejects the
   classes of printer bugs that survive the KIR-eval oracle — the
   oracle checks the lowering, not the printed text:

   - unbalanced braces / parens / brackets (after stripping comments
     and literals);
   - program-level names (work functions, region helpers, channel
     buffers) used before their declaration, or declared more than
     once (the gensym-collision class);
   - a barrier inside [tid]-dependent control flow — fatal on WGSL
     (uniform-control-flow is a hard validation rule) and a deadlock
     on the other three, so it is enforced for every target;
   - the kernel must contain at least one barrier (the staging
     predicate handoff cannot be correct without one). *)

let barrier_token = function
  | Ir.Cuda -> "__syncthreads"
  | Ir.Wgsl -> "workgroupBarrier"
  | Ir.Opencl -> "barrier"
  | Ir.Metal -> "threadgroup_barrier"

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

(* Blank out comments and string/char literals, preserving length and
   newlines so positions stay meaningful. *)
let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let i = ref 0 in
  let blank j = if Bytes.get out j <> '\n' then Bytes.set out j ' ' in
  while !i < n do
    let c = src.[!i] in
    if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do
        blank !i;
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      blank !i;
      blank (!i + 1);
      i := !i + 2;
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '*' && !i + 1 < n && src.[!i + 1] = '/' then begin
          blank !i;
          blank (!i + 1);
          i := !i + 2;
          closed := true
        end
        else begin
          blank !i;
          incr i
        end
      done
    end
    else if c = '"' || c = '\'' then begin
      let quote = c in
      blank !i;
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '\\' && !i + 1 < n then begin
          blank !i;
          blank (!i + 1);
          i := !i + 2
        end
        else if src.[!i] = quote then begin
          blank !i;
          incr i;
          closed := true
        end
        else begin
          blank !i;
          incr i
        end
      done
    end
    else incr i
  done;
  Bytes.to_string out

(* [pat] occurs in [src] at byte [i]; allocation-free. *)
let matches_at src i pat =
  let m = String.length pat in
  let rec go k = k = m || (src.[i + k] = pat.[k] && go (k + 1)) in
  i >= 0 && i + m <= String.length src && go 0

(* [w] occurs in [src] at byte [i] as a whole identifier. *)
let word_at src i w =
  let j = i + String.length w in
  matches_at src i w
  && (i = 0 || not (is_ident_char src.[i - 1]))
  && (j = String.length src || not (is_ident_char src.[j]))

(* Identifier -> positions, built in one pass: the whole-identifier
   occurrences of a name are exactly the maximal identifier-character
   runs equal to it. *)
let words src =
  let tbl = Hashtbl.create 1024 in
  let n = String.length src in
  let i = ref 0 in
  while !i < n do
    if is_ident_char src.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      Hashtbl.add tbl (String.sub src !i (!j - !i)) !i;
      i := !j
    end
    else incr i
  done;
  tbl

(* All positions where [name] occurs as a whole identifier, ascending. *)
let word_occurrences words name = List.rev (Hashtbl.find_all words name)

let check_balance src =
  let stack = ref [] in
  let err = ref None in
  String.iteri
    (fun pos c ->
      if !err = None then
        match c with
        | '{' | '(' | '[' -> stack := (c, pos) :: !stack
        | '}' | ')' | ']' -> (
          let opener = match c with '}' -> '{' | ')' -> '(' | _ -> '[' in
          match !stack with
          | (o, _) :: rest when o = opener -> stack := rest
          | _ -> err := Some (Printf.sprintf "unbalanced '%c' at byte %d" c pos))
        | _ -> ())
    src;
  match (!err, !stack) with
  | Some e, _ -> Error e
  | None, (o, pos) :: _ ->
    Error (Printf.sprintf "unclosed '%c' opened at byte %d" o pos)
  | None, [] -> Ok ()

(* [name] must first occur inside its declaration, the text
   [prefix ^ name ^ suffix]; with [unique], a second declaration-shaped
   occurrence is a name collision. *)
let check_decl ?(unique = true) src words ~name ~prefix ~suffix =
  let occ = word_occurrences words name in
  let decls =
    List.filter
      (fun i ->
        matches_at src (i - String.length prefix) prefix
        && matches_at src (i + String.length name) suffix)
      occ
  in
  match (occ, decls) with
  | [], _ -> Error (Printf.sprintf "%s never appears" name)
  | _, [] -> Error (Printf.sprintf "%s has no declaration" name)
  | first :: _, _ ->
    if not (List.mem first decls) then
      Error (Printf.sprintf "%s used before its declaration" name)
    else if unique && List.length decls > 1 then
      Error (Printf.sprintf "%s declared %d times" name (List.length decls))
    else Ok ()

(* Reject a barrier under tid-dependent control flow.  Tracks the brace
   stack; a brace opened by an if/for/while header whose text mentions
   [tid] (and any else-branch of such an if) is non-uniform. *)
let check_barrier_uniformity src ~barrier =
  let n = String.length src in
  let stack = ref [] in
  let last_popped = ref false in
  let err = ref None in
  let i = ref 0 in
  (* [w] as a whole identifier in [from, upto), where [upto] is a
     non-identifier byte or the end *)
  let has_word ~from ~upto w =
    let rec go k = k < upto && (word_at src k w || go (k + 1)) in
    go from
  in
  while !i < n && !err = None do
    if word_at src !i "if" || word_at src !i "for" || word_at src !i "while"
    then begin
      (* header runs to the '{' or, for brace-less bodies, the ';' *)
      let j = ref !i in
      while !j < n && src.[!j] <> '{' && src.[!j] <> ';' do
        incr j
      done;
      let tid_dep = has_word ~from:!i ~upto:!j "tid" in
      if !j < n && src.[!j] = '{' then begin
        stack := tid_dep :: !stack;
        i := !j + 1
      end
      else begin
        (* brace-less body: treat the statement itself as guarded *)
        if tid_dep && has_word ~from:!i ~upto:!j barrier then
          err :=
            Some
              (Printf.sprintf "%s under tid-dependent guard at byte %d"
                 barrier !i);
        i := !j + 1
      end
    end
    else if word_at src !i "else" then begin
      (* else-branch inherits the popped if's uniformity *)
      let j = ref (!i + 4) in
      while !j < n && (src.[!j] = ' ' || src.[!j] = '\n') do
        incr j
      done;
      if !j < n && src.[!j] = '{' then begin
        stack := !last_popped :: !stack;
        i := !j + 1
      end
      else i := !i + 4
    end
    else if src.[!i] = '{' then begin
      stack := false :: !stack;
      incr i
    end
    else if src.[!i] = '}' then begin
      (match !stack with
      | top :: rest ->
        last_popped := top;
        stack := rest
      | [] -> ());
      incr i
    end
    else if word_at src !i barrier then begin
      if List.exists (fun g -> g) !stack then
        err :=
          Some
            (Printf.sprintf "%s inside tid-dependent control flow at byte %d"
               barrier !i);
      i := !i + String.length barrier
    end
    else incr i
  done;
  match !err with Some e -> Error e | None -> Ok ()

(* The text around a name at its declaration: (prefix, suffix). *)
let decl_affixes target kind =
  match (target, kind) with
  | Ir.Wgsl, (`Fn | `Region) -> ("fn ", "(")
  | (Ir.Cuda | Ir.Opencl | Ir.Metal), `Fn -> ("void ", "(")
  | (Ir.Cuda | Ir.Opencl | Ir.Metal), `Region -> ("int ", "(")
  | Ir.Wgsl, `Buffer -> ("> ", ":")
  | Ir.Cuda, `Buffer -> ("float* ", "")
  | Ir.Opencl, `Buffer -> ("__global float* ", "")
  | Ir.Metal, `Buffer -> ("device float* ", "")

let check (target : Ir.target) (p : Ir.program) src =
  let s = strip src in
  let words = words s in
  let ( let* ) = Result.bind in
  let* () = check_balance s in
  let* () =
    if word_occurrences words (barrier_token target) = [] then
      Error (Printf.sprintf "no %s in kernel" (barrier_token target))
    else Ok ()
  in
  let* () = check_barrier_uniformity s ~barrier:(barrier_token target) in
  let rec all = function
    | [] -> Ok ()
    | (name, kind) :: rest ->
      (* the CUDA/Metal host code re-declares buffer names (cudaMalloc /
         newBuffer), so uniqueness is only enforced for functions *)
      let unique = kind <> `Buffer in
      let prefix, suffix = decl_affixes target kind in
      let* () = check_decl ~unique s words ~name ~prefix ~suffix in
      all rest
  in
  let names =
    List.map (fun (w : Ir.work_fn) -> (w.Ir.w_name, `Fn)) p.Ir.work_fns
    @ List.map
        (fun (v, _) -> (Printf.sprintf "region_%d" v, `Region))
        p.Ir.regions
    @ List.map
        (fun (b : Ir.buffer) -> (b.Ir.b_name, `Buffer))
        (Array.to_list p.Ir.buffers)
  in
  all names

let check_err target p src =
  match check target p src with
  | Ok () -> Ok ()
  | Error e -> Error (Printf.sprintf "%s: %s" (Ir.target_name target) e)
