(* The run envelope every result carries: which code ran, on what. *)

(* A checkout is not always a git repository (an exported tree has no
   .git), so next to the git revision, when there is one, the envelope
   records an MD5 over every source file of the compiler and the
   benchmark, which identifies the code either way. *)
let git_rev () =
  if not (Sys.file_exists ".git") then "unavailable"
  else
    match
      Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |]
    with
    | exception Unix.Unix_error _ -> "unavailable"
    | ic -> (
      let line = try Some (input_line ic) with End_of_file -> None in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some l -> String.trim l
      | _ -> "unavailable")

let rec source_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then source_files p
         else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
         then [ p ]
         else [])

let source_digest () =
  let files =
    List.concat_map
      (fun d -> if Sys.file_exists d then source_files d else [])
      [ "lib"; "bin"; "perfbench" ]
  in
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun f -> f ^ "\000" ^ Digest.file f) files)))

let to_json ~workload ~seed ~seconds ~trace ~samples =
  let module J = Obs.Report in
  J.Obj
    [
      ("workload", J.Str workload);
      ("seed", J.Int seed);
      ("seconds", J.Int seconds);
      ("trace", J.Bool trace);
      ("rev", J.Str (git_rev ()));
      ("src_md5", J.Str (source_digest ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("host_nproc", J.Int (Domain.recommended_domain_count ()));
      ("pool_width", J.Int (Par.Pool.jobs ()));
      ("clients", J.Int 1);
      ("samples", J.Obj (List.map (fun (k, n) -> (k, J.Int n)) samples));
    ]
