(* Four-way differential oracle.

   One compiled program, four executions that share nothing but the
   work-function evaluator:

   - {!Streamit.Interp}: the FIFO reference interpreter (semantic ground
     truth), run for [iters * scale] original steady states;
   - {!Swp_core.Funcsim}: the device functional simulator — ring buffers,
     shuffled layouts (eqs. (9)-(11)), staging predicates;
   - {!Replay}: flat token-indexed channels executed in global schedule
     time order with the (8a)/(8b) visibility rules enforced per read;
   - {!Kir.Eval}: direct execution of the lowered portable kernel IR —
     the same program every backend printer renders, so a lowering bug
     (dropped buffer, wrong fire order, bad index map) diverges here
     even when the schedule itself is sound.

   Output streams must agree token-for-token, bit-for-bit: all legs
   evaluate each firing with the same expression evaluator in the same
   order, so even floating-point results are exactly reproducible. *)

open Streamit
open Types

let pp_tokens tokens =
  let n = Array.length tokens in
  let shown = min n 8 in
  let head =
    String.concat " "
      (List.init shown (fun i -> string_of_value tokens.(i)))
  in
  if n > shown then Printf.sprintf "[%s ... (%d tokens)]" head n
  else Printf.sprintf "[%s]" head

let compare_streams ~ref_name ~ref_tokens ~name ~tokens =
  if Array.length tokens <> Array.length ref_tokens then
    Error
      (Printf.sprintf "%s produced %d output tokens, %s produced %d" name
         (Array.length tokens) ref_name
         (Array.length ref_tokens))
  else begin
    let bad = ref None in
    Array.iteri
      (fun i v ->
        if !bad = None && not (equal_value v ref_tokens.(i)) then
          bad :=
            Some
              (Printf.sprintf "token %d: %s says %s, %s says %s (%s vs %s)" i
                 name (string_of_value v) ref_name
                 (string_of_value ref_tokens.(i))
                 (pp_tokens tokens) (pp_tokens ref_tokens)))
      tokens;
    match !bad with None -> Ok () | Some m -> Error m
  end

(* Run all three legs and compare.  Exceptions from the simulators are
   converted into [Error]s so a fuzz driver can shrink them like any other
   disagreement. *)
let differential (c : Swp_core.Compile.compiled) ~input ~iters =
  let scale = c.Swp_core.Compile.config.Swp_core.Select.scale in
  let interp =
    Array.of_list
      (Interp.run_steady_states c.Swp_core.Compile.graph ~input
         ~iters:(iters * scale))
  in
  let funcsim =
    try Ok (Array.of_list (Swp_core.Funcsim.run c ~input ~iters)) with
    | Swp_core.Funcsim.Uninitialized_read m ->
      Error ("funcsim: uninitialized read: " ^ m)
    | Failure m -> Error ("funcsim: " ^ m)
  in
  let replay =
    try Ok (Array.of_list (Replay.run c ~input ~iters)) with
    | Replay.Violation m -> Error ("replay: " ^ m)
    | Failure m -> Error ("replay: " ^ m)
  in
  let kir_eval =
    try
      Ok (Array.of_list (Kir.Eval.run (Kir.Lower.lower c) ~input ~iters))
    with
    | Kir.Eval.Uninitialized_read m ->
      Error ("kir-eval: uninitialized read: " ^ m)
    | Failure m -> Error ("kir-eval: " ^ m)
  in
  match (funcsim, replay, kir_eval) with
  | Error m, _, _ | _, Error m, _ | _, _, Error m -> Error m
  | Ok funcsim, Ok replay, Ok kir_eval -> (
    match
      compare_streams ~ref_name:"interpreter" ~ref_tokens:interp
        ~name:"funcsim" ~tokens:funcsim
    with
    | Error m -> Error m
    | Ok () -> (
      match
        compare_streams ~ref_name:"interpreter" ~ref_tokens:interp
          ~name:"replay" ~tokens:replay
      with
      | Error m -> Error m
      | Ok () ->
        compare_streams ~ref_name:"interpreter" ~ref_tokens:interp
          ~name:"kir-eval" ~tokens:kir_eval))
