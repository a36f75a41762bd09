(* Wire protocol for [streamit_gpu serve]: newline-delimited JSON.

   One request object per line in, one response object per line out,
   in request order.  Documents are read and written by [Obs.Report],
   whose reader is hardened for untrusted clients (duplicate keys,
   non-finite numbers and invalid UTF-8 are rejected — the last matters
   because request ids are echoed back verbatim).  This module adds the
   typed request/response layer on top.  Typed fields are strict: a
   present field of the wrong type is an error, never silently ignored.
   Input lines are read through {!read_bounded_line}, so one huge line
   costs a bounded buffer and a one-line error response, not an OOM.

   Request schema (all fields optional unless noted):
     {"op": "compile" | "stats" | "ping" | "shutdown", // default "compile"
      "id": <any json, echoed back verbatim>,
      "program": "<builtin benchmark name>",       // one of program/src
      "src": "<inline .str source>",               //   required for compile
      "num_sms": N, "coarsening": N, "scheme": "SWP"|"SWPNC",
      "budget": N, "deadline": SECONDS, "lns_rounds": N,
      "target": "cuda"|"wgsl"|"opencl"|"metal",    // default "cuda"
      "warm": bool,                                // default true
      "artifacts": ["schedule","layout","kernel","report"]}  // default none

   "cuda" is accepted as a legacy alias for the "kernel" artifact; both
   select the entry's kernel source, printed for the request's target.

   "deadline" is a per-request wall-clock bound in seconds; results
   compiled under one are returned but never cached (Service's taint
   rule), since a deadline can shape the artifact nondeterministically.

   Response: {"id": ..., "status": "ok"|"error", and for ok compiles
   "cache": "hit"|"miss"|"incremental", "key", "ii", "quality",
   "signature", plus any requested artifacts inline as strings}.  A
   request shed by admission control answers
   {"id": ..., "status": "error", "error": "overloaded: ...",
    "retry_after_ms": N}. *)

module J = Obs.Report

(* The one JSON reader is [Obs.Report.parse]; requests go through this
   wrapper so the protocol.decode fault site sees every decode. *)
let parse s =
  if Resil.Inject.hit "protocol.decode" then
    raise (J.Parse_error "injected fault: protocol.decode");
  J.parse s

(* --- bounded line reads --- *)

type read_result = Line of string | Truncated | Eof

let read_bounded_line ~max_bytes ic =
  let b = Buffer.create 256 in
  (* Over-limit: stop buffering but keep consuming to the newline, so
     the stream stays line-synchronized and the next request parses. *)
  let rec discard () =
    match input_char ic with
    | '\n' -> Truncated
    | _ -> discard ()
    | exception End_of_file -> Truncated
  in
  let rec go () =
    match input_char ic with
    | '\n' -> Line (Buffer.contents b)
    | c ->
      if Buffer.length b >= max_bytes then discard ()
      else begin
        Buffer.add_char b c;
        go ()
      end
    | exception End_of_file ->
      if Buffer.length b = 0 then Eof else Line (Buffer.contents b)
  in
  go ()

(* --- typed requests --- *)

type op = Compile | Stats | Ping | Shutdown

type request = {
  id : J.t option;
  op : op;
  program : string option;
  src : string option;
  num_sms : int option;
  coarsening : int;
  scheme : Swp_core.Compile.scheme;
  budget : int option;
  deadline : float option;
  lns_rounds : int option;
  target : Kir.Ir.target;
  warm : bool;
  artifacts : string list;
}

let ( let* ) = Result.bind

(* Strict extraction: absent is fine, the wrong type is an error — a
   request that says {"budget": 1e23} meant *something*, and silently
   compiling without a budget is the wrong answer. *)
let typed doc name conv expect =
  match J.member name doc with
  | None -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "%s must be %s" name expect))

let str_field doc name =
  typed doc name (function J.Str s -> Some s | _ -> None) "a string"

let int_field doc name =
  typed doc name (function J.Int i -> Some i | _ -> None) "an integer"

let bool_field doc name =
  typed doc name (function J.Bool b -> Some b | _ -> None) "a boolean"

let num_field doc name =
  typed doc name
    (function J.Int i -> Some (float_of_int i) | J.Float f -> Some f | _ -> None)
    "a number"

let request_of_json doc =
  match doc with
  | J.Obj _ ->
    let* op =
      match J.member "op" doc with
      | None | Some (J.Str "compile") -> Ok Compile
      | Some (J.Str "stats") -> Ok Stats
      | Some (J.Str "ping") -> Ok Ping
      | Some (J.Str "shutdown") -> Ok Shutdown
      | Some (J.Str other) -> Error (Printf.sprintf "unknown op %S" other)
      | Some _ -> Error "op must be a string"
    in
    let* scheme =
      match J.member "scheme" doc with
      | None | Some (J.Str "SWP") -> Ok Swp_core.Compile.Swp_coalesced
      | Some (J.Str "SWPNC") -> Ok Swp_core.Compile.Swp_non_coalesced
      | Some (J.Str other) -> Error (Printf.sprintf "unknown scheme %S" other)
      | Some _ -> Error "scheme must be a string"
    in
    let* target =
      match J.member "target" doc with
      | None -> Ok Kir.Ir.Cuda
      | Some (J.Str s) -> (
        match Kir.Ir.target_of_string s with
        | Some t -> Ok t
        | None -> Error (Printf.sprintf "unknown target %S" s))
      | Some _ -> Error "target must be a string"
    in
    let* artifacts =
      match J.member "artifacts" doc with
      | Some (J.Arr xs) ->
        List.fold_left
          (fun acc x ->
            Result.bind acc (fun acc ->
                match x with
                | J.Str
                    (("schedule" | "layout" | "kernel" | "cuda" | "report")
                    as a) ->
                  Ok (a :: acc)
                | J.Str other ->
                  Error (Printf.sprintf "unknown artifact %S" other)
                | _ -> Error "artifacts must be strings"))
          (Ok []) xs
        |> Result.map List.rev
      | None -> Ok []
      | Some _ -> Error "artifacts must be an array"
    in
    let* program = str_field doc "program" in
    let* src = str_field doc "src" in
    let* num_sms = int_field doc "num_sms" in
    let* coarsening = int_field doc "coarsening" in
    let* budget = int_field doc "budget" in
    let* deadline = num_field doc "deadline" in
    let* lns_rounds = int_field doc "lns_rounds" in
    let* warm = bool_field doc "warm" in
    Ok
      {
        id = J.member "id" doc;
        op;
        program;
        src;
        num_sms;
        coarsening = Option.value coarsening ~default:1;
        scheme;
        budget;
        deadline;
        lns_rounds;
        target;
        warm = Option.value warm ~default:true;
        artifacts;
      }
  | _ -> Error "request must be a JSON object"

let parse_request line =
  match parse line with
  | exception J.Parse_error m -> Error ("invalid JSON: " ^ m)
  | doc -> request_of_json doc

(* --- responses --- *)

let id_field r = [ ("id", Option.value r.id ~default:J.Null) ]

let resolve_id ?req ?id () =
  (* [req] when the request parsed; bare [id] when only the raw JSON
     did (clients correlate responses by id either way). *)
  match (req, id) with
  | Some r, _ -> Option.value r.id ~default:J.Null
  | None, Some v -> v
  | None, None -> J.Null

let error_response ?req ?id message =
  J.to_string
    (J.Obj
       [
         ("id", resolve_id ?req ?id ());
         ("status", J.Str "error");
         ("error", J.Str message);
       ])

let overloaded_response ?req ?id ~reason ~retry_after_ms () =
  (* The shed path must stay deterministic under a fixed admission
     state: same request order, same sheds, same hints. *)
  J.to_string
    (J.Obj
       [
         ("id", resolve_id ?req ?id ());
         ("status", J.Str "error");
         ("error", J.Str ("overloaded: " ^ reason));
         ("retry_after_ms", J.Int retry_after_ms);
       ])

let ok_response req (e : Store.entry) (outcome : Service.outcome) =
  let artifact name body =
    if List.mem name req.artifacts then [ (name, J.Str body) ] else []
  in
  J.to_string
    (J.Obj
       (id_field req
       @ [
           ("status", J.Str "ok");
           ("cache", J.Str (Service.outcome_name outcome));
           ("key", J.Str e.Store.key);
           ("ii", J.Int e.Store.ii);
           ("quality", J.Str e.Store.quality);
           ("signature", J.Str e.Store.signature);
         ]
       @ artifact "schedule" e.Store.schedule
       @ artifact "layout" e.Store.layout
       @ artifact "kernel" e.Store.kernel
       (* legacy alias: pre-v2 clients ask for "cuda" *)
       @ artifact "cuda" e.Store.kernel
       @ artifact "report" e.Store.report))

let shutdown_response ?(drain = []) req =
  J.to_string
    (J.Obj
       (id_field req @ [ ("status", J.Str "ok"); ("bye", J.Bool true) ] @ drain))
