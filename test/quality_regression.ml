(* Quality-regression gate: compile every registry benchmark at the
   unlimited budget and compare the achieved II against the checked-in
   per-benchmark baseline (quality_baseline.json).  Each benchmark is
   compiled at the default configuration (all 16 SMs, coarsening 1;
   entry "<Bench>") and on the sweep grid (2/4/6/8 SMs, coarsening 8;
   entries "<Bench>@<sms>").  Any achieved II strictly above its
   baseline fails the run; an II strictly below is reported so the
   baseline can be ratcheted down.  Exit status 0 iff no entry
   regressed.

   The baseline file is a {"baseline": {"Name": ii, ...}} object. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    (fun () -> really_input_string ic (in_channel_length ic))
    ~finally:(fun () -> close_in ic)

let baseline_of text =
  let module J = Obs.Report in
  match J.member "baseline" (J.parse text) with
  | Some (J.Obj fields) ->
    List.map
      (function
        | name, J.Int ii -> (name, ii)
        | name, _ -> failwith ("quality_baseline.json: " ^ name ^ " is not an int"))
      fields
  | _ -> failwith "quality_baseline.json: no \"baseline\" object"

(* The sweep grid: the SM counts and coarsening of [streamit_gpu sweep]. *)
let grid_sms = [ 2; 4; 6; 8 ]
let grid_coarsening = 8

(* Every (entry name, compile) case of one benchmark. *)
let cases name =
  (name, fun g -> Swp_core.Compile.compile g)
  :: List.map
       (fun sms ->
         ( Printf.sprintf "%s@%d" name sms,
           fun g ->
             Swp_core.Compile.compile ~num_sms:sms ~coarsening:grid_coarsening
               g ))
       grid_sms

(* The benchmark an entry name refers to: the part before any "@". *)
let bench_of key =
  match String.index_opt key '@' with
  | Some i -> String.sub key 0 i
  | None -> key

let () =
  let baseline_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "quality_baseline.json"
  in
  let baseline = baseline_of (read_file baseline_path) in
  let failures = ref 0 in
  Printf.printf "%-16s %10s %10s  %s\n" "entry" "baseline" "achieved" "";
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let g = Streamit.Flatten.flatten (e.Benchmarks.Registry.stream ()) in
      List.iter
        (fun (name, compile) ->
          match compile g with
          | Error m ->
            incr failures;
            Printf.printf "%-16s %10s %10s  FAIL compile: %s\n" name "-" "-" m
          | Ok c -> (
            let achieved =
              c.Swp_core.Compile.search_stats.Swp_core.Ii_search.achieved_ii
            in
            match List.assoc_opt name baseline with
            | None ->
              incr failures;
              Printf.printf "%-16s %10s %10d  FAIL no baseline entry\n" name
                "-" achieved
            | Some base when achieved > base ->
              incr failures;
              Printf.printf "%-16s %10d %10d  FAIL regressed by %d\n" name base
                achieved (achieved - base)
            | Some base when achieved < base ->
              Printf.printf
                "%-16s %10d %10d  ok (improved by %d — ratchet the baseline)\n"
                name base achieved (base - achieved)
            | Some base ->
              Printf.printf "%-16s %10d %10d  ok\n" name base achieved))
        (cases e.Benchmarks.Registry.name))
    Benchmarks.Registry.all;
  (* Stale baseline entries for benchmarks or grid points that no longer
     exist are also an error: they would silently stop gating anything. *)
  List.iter
    (fun (name, _) ->
      let live =
        match Benchmarks.Registry.find (bench_of name) with
        | None -> false
        | Some _ -> List.mem_assoc name (cases (bench_of name))
      in
      if not live then begin
        incr failures;
        Printf.printf "%-16s %10s %10s  FAIL stale baseline entry\n" name "?"
          "-"
      end)
    baseline;
  if !failures > 0 then begin
    Printf.printf "%d quality regression(s)\n" !failures;
    exit 1
  end
  else print_string "no quality regressions\n"
