(* [fuzz]: seeded [Check.Gen] streams, generated during set-up, each
   timed through [Check.Fuzz.check_stream] — compile, invariants, the
   four oracle legs (interpreter, functional simulator, schedule replay,
   KIR evaluation) and the four-target lint.  Small random programs with
   feedback loops, unlike the registry.  One client checks the streams
   back to back (closed loop).

   The corpus is the first [corpus_size] generator seeds, the range
   [streamit_gpu fuzz --seeds 64] checks; the workload seed draws the
   order they are generated and checked in.  Per-seed cost is heavy
   tailed (a few seeds spend seconds in the exact ILP arm), so a corpus
   drawn afresh per run would not give steady figures at this size.
   The profile memo is cleared and the heap collected before every
   seed, so a seed's cost does not depend on which seeds ran before it
   (nor does where the collector's work falls).  The run checks the whole
   corpus, passing over it again until it has been busy for the run's
   seconds.

   A failing seed counts in [failed]; skipped seeds stay in the
   denominator of the accept rate; no seed is dropped or resized. *)

module F = Check.Fuzz

let corpus_size = 64
let tail_pct = 75.0

type seed_case = { gen_seed : int; stream : Streamit.Ast.stream }

let setup seed () =
  let st = Random.State.make [| 0xf022; seed |] in
  List.map
    (fun gen_seed -> { gen_seed; stream = Check.Gen.stream ~seed:gen_seed () })
    (Cold.shuffle st (List.init corpus_size (fun i -> i + 1)))

(* The four skip reasons [check_stream] reports, bucketed. *)
let skip_bucket reason =
  let has sub = Report.contains ~sub reason in
  if has "feedback loop" then "check.skip.feedback"
  else if has "too large to schedule" then "check.skip.steady_state"
  else if has "simulation budget" then "check.skip.sim_budget"
  else "check.skip.other"

type outcome = Pass | Skip of string | Fail of string

let crash_message = function
  | Failure m | Invalid_argument m -> "crash: " ^ m
  | Assert_failure _ -> "crash: assertion failure"
  | Streamit.Interp.Firing_violation m -> "interp: " ^ m
  | Swp_core.Funcsim.Uninitialized_read m -> "funcsim: uninitialized read: " ^ m
  | Check.Replay.Violation m -> "replay: " ^ m
  | Kir.Eval.Uninitialized_read m -> "kir-eval: uninitialized read: " ^ m
  | Kir.Ir.Unsupported m -> "unsupported: " ^ m
  | e -> "crash: " ^ Printexc.to_string e

(* [check_stream] called leg by leg through the same public functions,
   each under its own span.  Gives the same outcome as [check_stream]
   (the benchmark's tests check this on a pinned seed range). *)
let traced_check ~input s =
  let iters = 2 in
  match
    Span.with_ "streamit.flatten" (fun () ->
        try Ok (Streamit.Flatten.flatten s)
        with Failure m -> Error ("flatten: " ^ m))
  with
  | Error m -> Fail m
  | Ok g -> (
    let too_large =
      Span.with_ "streamit.sdf" (fun () ->
          match Streamit.Sdf.steady_state g with
          | Ok r ->
            Array.fold_left ( + ) 0 r.Streamit.Sdf.reps
            > Check.Gen.max_steady_firings
          | Error _ -> false)
    in
    if too_large then
      Skip "steady state too large to schedule within the fuzz budget"
    else
      match Span.with_ "check.compile" (fun () -> Swp_core.Compile.compile g) with
      | Error m -> Skip ("compile: " ^ m)
      | Ok c -> (
        if F.work_estimate c ~iters > F.default_max_firings then
          Skip "steady state too large for the simulation budget"
        else
          try
            match
              Span.with_ "check.invariants" (fun () -> Check.Invariants.all c)
            with
            | Error m -> Fail ("invariant: " ^ m)
            | Ok () -> (
              let scale = c.Swp_core.Compile.config.Swp_core.Select.scale in
              let interp =
                Span.with_ "check.interp" (fun () ->
                    Array.of_list
                      (Streamit.Interp.run_steady_states g ~input
                         ~iters:(iters * scale)))
              in
              let funcsim =
                Span.with_ "check.funcsim" (fun () ->
                    Array.of_list (Swp_core.Funcsim.run c ~input ~iters))
              in
              let replay =
                Span.with_ "check.replay" (fun () ->
                    Array.of_list (Check.Replay.run c ~input ~iters))
              in
              let p = Span.with_ "kir.lower" (fun () -> Kir.Lower.lower c) in
              let kir_eval =
                Span.with_ "check.kir_eval" (fun () ->
                    Array.of_list (Kir.Eval.run p ~input ~iters))
              in
              let compare name tokens =
                Check.Oracle.compare_streams ~ref_name:"interpreter"
                  ~ref_tokens:interp ~name ~tokens
              in
              match
                List.find_map
                  (fun (name, tokens) ->
                    match compare name tokens with
                    | Ok () -> None
                    | Error m -> Some m)
                  [
                    ("funcsim", funcsim);
                    ("replay", replay);
                    ("kir-eval", kir_eval);
                  ]
              with
              | Some m -> Fail m
              | None ->
                let cuda =
                  Span.with_ "kir.print.cuda" (fun () ->
                      Kir.Backend.emit Kir.Ir.Cuda p)
                in
                match Staged.other_printers ~lint_span:"check.lint" p ~cuda with
                | Ok () -> Pass
                | Error m -> Fail m)
          with e -> Fail (crash_message e)))

let check ~trace { gen_seed; stream } =
  let input = Check.Gen.input ~seed:gen_seed in
  if trace then traced_check ~input stream
  else
    match F.check_stream ~input stream with
    | Ok F.Pass -> Pass
    | Ok (F.Skip r) -> Skip r
    | Ok (F.Fail m) | Error m -> Fail m

let run ~seed ~seconds ~trace : Report.outcome =
  let setup, corpus = Report.start_setup ~seconds (setup seed) in
  let lat = ref [] and errors = ref [] and attempted = ref 0 in
  let passed = ref 0 and skipped = ref 0 and busy = ref 0.0 in
  let min_n = Stats.samples_for tail_pct in
  let first_pass = ref true in
  let cal = Calib.create () and refs = ref [] in
  while !first_pass || !busy < seconds || List.length !lat < min_n do
    List.iter
      (fun case ->
        Report.tick_setup setup;
        Swp_core.Profile.clear_cache ();
        Gc.full_major ();
        incr attempted;
        Calib.start cal;
        let o, dt =
          Span.in_request (fun () ->
              let t0 = Resil.Clock.now () in
              let o = Span.with_ "seed" (fun () -> check ~trace case) in
              (o, Resil.Clock.now () -. t0))
        in
        busy := !busy +. dt;
        lat := (dt *. 1000.0) :: !lat;
        refs := Calib.finish cal ~op_s:dt :: !refs;
        Layers.incr "check.seeds";
        match o with
        | Pass -> incr passed
        | Skip reason ->
          incr skipped;
          Layers.incr (skip_bucket reason)
        | Fail m ->
          errors := Printf.sprintf "gen seed %d: %s" case.gen_seed m :: !errors)
      corpus;
    first_pass := false
  done;
  let ops_ms = Array.of_list (List.rev !lat) in
  let n = !attempted in
  let busy_s = Stats.sum ops_ms /. 1000.0 in
  {
    Report.attempted = n;
    failed = List.length !errors;
    errors = List.rev !errors;
    setup_s = Report.setup_times setup;
    ops_ms;
    ref_ms = Array.of_list (List.rev !refs);
    tail_pct;
    named =
      Report.timing_block ~prefix:"fuzz_seed" ~rate_name:"fuzz_seeds_per_s"
        ~tail_pct ops_ms
      @ [
          Report.named ~samples:n "fuzz_checked_per_s" "1/s"
            (float_of_int !passed /. busy_s);
          Report.named ~samples:n "accept_rate" "ratio"
            (float_of_int (n - !skipped) /. float_of_int n);
        ]
      @ List.map
          (fun b ->
            Report.named ~samples:n b "count" (Layers.get b))
          [
            "check.skip.feedback";
            "check.skip.steady_state";
            "check.skip.sim_budget";
            "check.skip.other";
          ];
  }
