(* JSON gate: every file named on the command line must parse with
   Obs.Report.parse, the repo's one reader.  A [.ndjson] file is checked
   line by line (blank lines skipped); any other file is one document.
   Exit status 1 names the first bad file and line. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    (fun () -> really_input_string ic (in_channel_length ic))
    ~finally:(fun () -> close_in ic)

let check path =
  let text = read_file path in
  let docs =
    if Filename.check_suffix path ".ndjson" then
      String.split_on_char '\n' text
      |> List.mapi (fun i l -> (Printf.sprintf "%s line %d" path (i + 1), l))
      |> List.filter (fun (_, l) -> String.trim l <> "")
    else [ (path, text) ]
  in
  List.iter
    (fun (where, doc) ->
      match Obs.Report.parse doc with
      | _ -> ()
      | exception Obs.Report.Parse_error m ->
        Printf.eprintf "json_check: %s: %s\n" where m;
        exit 1)
    docs;
  List.length docs

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  let docs = List.fold_left (fun n f -> n + check f) 0 files in
  Printf.printf "json_check: %d documents in %d files parse\n" docs
    (List.length files)
