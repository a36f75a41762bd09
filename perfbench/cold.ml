(* The two compile workloads, [cold16] and [sm_sweep]: registry programs
   compiled with the profile memo cleared before every job, as a CLI user
   pays for it on every process.  A job is [Compile.compile] plus
   lowering and printing CUDA; one client runs the jobs back to back
   (closed loop).  The seed only orders the jobs of each pass, and the
   run measures whole passes, so every run compiles the same job set.

   Output checks run outside the timed region: every compile must pass
   [Check.Invariants] and lint through [Kir.Backend.emit_checked], and
   cold16's CUDA must equal the checked-in golden kernel. *)

module C = Swp_core.Compile

type job = {
  bench : string;
  graph : Streamit.Graph.t;
  num_sms : int option;  (** [None]: the compile default, all 16 SMs *)
  coarsening : int;
  golden : string option;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let graphs () =
  List.map
    (fun (e : Benchmarks.Registry.entry) ->
      ( e.Benchmarks.Registry.name,
        Streamit.Flatten.flatten (e.Benchmarks.Registry.stream ()) ))
    Benchmarks.Registry.all

(* [Compile.compile] defaults: the call [emit] and the codegen goldens
   make. *)
let cold16_jobs () =
  List.map
    (fun (bench, graph) ->
      {
        bench;
        graph;
        num_sms = None;
        coarsening = 1;
        golden =
          Some (read_file (Printf.sprintf "test/fixtures/codegen/%s.cu" bench));
      })
    (graphs ())

(* The [streamit_gpu sweep] defaults. *)
let sweep_sms = [ 2; 4; 6; 8 ]

let sm_sweep_jobs () =
  List.concat_map
    (fun (bench, graph) ->
      List.map
        (fun n ->
          { bench; graph; num_sms = Some n; coarsening = 8; golden = None })
        sweep_sms)
    (graphs ())

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let speedup (c : C.compiled) =
  let gt = Swp_core.Executor.time_swp c in
  match
    Swp_core.Executor.speedup ~arch:Staged.arch ~graph:c.C.graph
      ~gpu_cycles_per_steady:gt.Swp_core.Executor.cycles_per_steady ()
  with
  | Ok s -> s
  | Error m -> failwith m

(* The executed program of Fig. 10 is SWP8. *)
let swp8 (c : C.compiled) = if c.C.coarsening = 8 then c else C.recoarsen c 8

let describe j =
  match j.num_sms with
  | Some n -> Printf.sprintf "%s@%dsm" j.bench n
  | None -> j.bench

(* The timed part of a job. *)
let compile_job ~trace j =
  let compiled =
    let num_sms = j.num_sms and coarsening = j.coarsening in
    if trace then Staged.compile ?num_sms ~coarsening j.graph
    else C.compile ?num_sms ~coarsening j.graph
  in
  Result.map
    (fun c ->
      if trace then
        let p, cuda = Staged.lower_cuda c in
        (c, p, cuda)
      else
        let p = Kir.Lower.lower c in
        (c, p, Kir.Backend.emit Kir.Ir.Cuda p))
    compiled

(* Every compile must pass the invariants, lint, and match its golden
   kernel.  A compile whose CUDA and schedule signature (which covers the
   attempt log) are byte-identical to an already checked compile of the
   job is the same schedule and kernel, so only new outputs are checked
   in full.  A job can have more than one output: the exact ILP arm runs
   under a CPU-time cap, so where the cap fires can change the attempt
   log from one compile to the next.  [checked] maps a job to the
   fingerprints of its checked outputs. *)
let check checked i j (c, p, cuda) =
  let ( let* ) = Result.bind in
  let fingerprint = Digest.string (cuda ^ Swp_core.Report.schedule_signature c) in
  let seen = Option.value (Hashtbl.find_opt checked i) ~default:[] in
  if List.mem fingerprint seen then Ok ()
  else
    let* () =
      Result.map_error (fun m -> "invariants: " ^ m) (Check.Invariants.all c)
    in
    let* _ = Kir.Backend.emit_checked Kir.Ir.Cuda p in
    let* () =
      match j.golden with
      | Some g when g <> cuda -> Error "CUDA differs from the golden fixture"
      | _ -> Ok ()
    in
    Hashtbl.replace checked i (fingerprint :: seen);
    Ok ()

(* Whole passes over the job set until the jobs have been busy for
   [seconds] and the tail percentile has enough samples beyond it.  The
   traced run prints the other three targets, lints and executes each job
   once, on the first pass, outside the job's latency. *)
let run ~jobs ~tail_pct ~seed ~seconds ~trace : Report.outcome =
  let setup, js = Report.start_setup ~seconds jobs in
  let js = List.mapi (fun i j -> (i, j)) js in
  let st = Random.State.make [| 0xc01d; seed |] in
  let lat = ref [] and errors = ref [] and attempted = ref 0 in
  let busy = ref 0.0 and checked = Hashtbl.create 64 in
  let speedups = ref [] and buffer_bytes = ref 0 in
  let min_n = Stats.samples_for tail_pct in
  let first_pass = ref true in
  let cal = Calib.create () and refs = ref [] in
  while !first_pass || !busy < seconds || List.length !lat < min_n do
    List.iter
      (fun (i, j) ->
        Report.tick_setup setup;
        Swp_core.Profile.clear_cache ();
        incr attempted;
        Calib.start cal;
        Span.in_request (fun () ->
            let t0 = Resil.Clock.now () in
            let r = Span.with_ "job" (fun () -> compile_job ~trace j) in
            let dt = Resil.Clock.now () -. t0 in
            busy := !busy +. dt;
            match r with
            | Error m -> errors := (describe j ^ ": " ^ m) :: !errors
            | Ok ((c, p, cuda) as out) -> (
              lat := (dt *. 1000.0) :: !lat;
              refs := Calib.finish cal ~op_s:dt :: !refs;
              let traced_extras =
                if trace && !first_pass then begin
                  ignore (Staged.execute (swp8 c));
                  Staged.other_printers p ~cuda
                end
                else Ok ()
              in
              match
                Result.bind traced_extras (fun () -> check checked i j out)
              with
              | Error m -> errors := (describe j ^ ": " ^ m) :: !errors
              | Ok () ->
                if !first_pass then begin
                  let c8 = swp8 c in
                  speedups := speedup c8 :: !speedups;
                  buffer_bytes :=
                    !buffer_bytes
                    + c8.C.sizing.Swp_core.Buffer_layout.total_bytes
                end)))
      (shuffle st js);
    first_pass := false
  done;
  let ops_ms = Array.of_list (List.rev !lat) in
  let speedup_geomean = Stats.geomean !speedups in
  let variants =
    Hashtbl.fold (fun _ seen acc -> acc + List.length seen - 1) checked 0
  in
  {
    Report.attempted = !attempted;
    failed = List.length !errors;
    errors = List.rev !errors;
    setup_s = Report.setup_times setup;
    ops_ms;
    ref_ms = Array.of_list (List.rev !refs);
    tail_pct;
    named =
      Report.timing_block ~prefix:"compile" ~rate_name:"compiles_per_s"
        ~tail_pct ops_ms
      @ [
          Report.named "speedup_geomean" "x" speedup_geomean;
          Report.named "buffer_mb" "MB" (float_of_int !buffer_bytes /. 1048576.0);
          Report.named "recompile_variants" "count" (float_of_int variants);
        ];
  }

let cold16 = run ~jobs:cold16_jobs ~tail_pct:90.0
let sm_sweep = run ~jobs:sm_sweep_jobs ~tail_pct:90.0
