(* The repo benchmark's command line:

     main.exe --workload <cold16|sm_sweep|serve_mix|fuzz> --seed <n>
              [--seconds <n>] [--trace <0|1>]

   Runs one workload in this process (pool width 1, one client), prints
   the workload's metrics by name and unit, the run envelope, and as the
   last line the JSON result.  Exits 1 when an output check failed and 2
   on a usage error. *)

open Perfbench

let workloads =
  [
    ("cold16", Cold.cold16);
    ("sm_sweep", Cold.sm_sweep);
    ("serve_mix", Serve_mix.run);
    ("fuzz", Fuzz_wl.run);
  ]

let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

type args = {
  workload : string option;
  seed : int option;
  seconds : int;
  trace : bool;
}

let int_arg flag v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> usage_error "%s expects an integer, got '%s'" flag v

let rec parse a = function
  | [] -> a
  | "--workload" :: v :: rest ->
    if not (List.mem_assoc v workloads) then
      usage_error "unknown workload '%s' (expected one of: %s)" v
        (String.concat ", " (List.map fst workloads));
    parse { a with workload = Some v } rest
  | "--seed" :: v :: rest ->
    parse { a with seed = Some (int_arg "--seed" v) } rest
  | "--seconds" :: v :: rest ->
    let s = int_arg "--seconds" v in
    if s < 1 then usage_error "--seconds must be at least 1";
    parse { a with seconds = s } rest
  | "--trace" :: v :: rest -> (
    match v with
    | "0" -> parse { a with trace = false } rest
    | "1" -> parse { a with trace = true } rest
    | _ -> usage_error "--trace expects 0 or 1, got '%s'" v)
  | [ ("--workload" | "--seed" | "--seconds" | "--trace") as flag ] ->
    usage_error "%s needs a value" flag
  | arg :: _ -> usage_error "unknown argument '%s'" arg

let () =
  let a =
    parse
      { workload = None; seed = None; seconds = 10; trace = false }
      (List.tl (Array.to_list Sys.argv))
  in
  let workload =
    match a.workload with Some w -> w | None -> usage_error "missing --workload"
  in
  let seed =
    match a.seed with Some s -> s | None -> usage_error "missing --seed"
  in
  Par.Pool.set_jobs 1;
  exit
    (Driver.run ~workload ~run:(List.assoc workload workloads) ~seed
       ~seconds:a.seconds ~trace:a.trace)
