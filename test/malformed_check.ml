(* Gate for the malformed-request corpus: the daemon's replies arrive
   on stdin, and every single one must be exactly one well-formed JSON
   object with status "error" — no crashes, no dropped lines, no
   half-written garbage, no accidental successes.  The expected reply
   count (the corpus line count) is argv 1. *)

let () =
  let expected = int_of_string Sys.argv.(1) in
  let seen = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "malformed_check: %s\n" m;
        exit 1)
      fmt
  in
  (try
     while true do
       let line = input_line stdin in
       if String.trim line <> "" then begin
         incr seen;
         match Obs.Report.parse line with
         | exception Obs.Report.Parse_error m ->
           fail "reply %d is not valid JSON (%s): %s" !seen m line
         | Obs.Report.Obj fields -> (
           match List.assoc_opt "status" fields with
           | Some (Obs.Report.Str "error") ->
             if not (List.mem_assoc "error" fields) then
               fail "reply %d has no error message: %s" !seen line
           | Some (Obs.Report.Str s) ->
             fail "reply %d has status %S, want \"error\": %s" !seen s line
           | _ -> fail "reply %d has no status: %s" !seen line)
         | _ -> fail "reply %d is not a JSON object: %s" !seen line
       end
     done
   with End_of_file -> ());
  if !seen <> expected then
    fail "expected %d error replies, got %d" expected !seen;
  Printf.printf "malformed_check: %d/%d malformed lines each drew one \
                 well-formed error\n"
    !seen expected
