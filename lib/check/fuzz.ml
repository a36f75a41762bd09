(* Differential fuzzing driver.

   For each seed: generate a stream ({!Gen}), compile it through the full
   pipeline, check the structural invariants ({!Invariants}), run the
   four-way differential oracle ({!Oracle}), and emit + structurally lint
   every codegen backend ({!Kir.Backend}, {!Kir.Lint}).  Failures are
   shrunk ({!Shrink}) under the same property before being reported.

   Programs the pipeline legitimately declines to compile (infeasible
   configuration, II search giving up) are counted as skips, as are
   programs whose steady state is too large to simulate quickly — a fuzz
   run's job is coverage per second, not exhaustiveness per seed. *)

open Streamit

let m_seeds = Obs.Metrics.counter "fuzz.seeds"
let m_passed = Obs.Metrics.counter "fuzz.passed"
let m_skipped = Obs.Metrics.counter "fuzz.skipped"
let m_cancelled = Obs.Metrics.counter "fuzz.cancelled"
let m_crashes = Obs.Metrics.counter "fuzz.crashes"
let m_mismatches = Obs.Metrics.counter "fuzz.mismatches"
let m_shrink_steps = Obs.Metrics.counter "fuzz.shrink_steps"

type failure = {
  seed : int;
  message : string;
  counterexample : Ast.stream;
  shrink_steps : int;
}

type outcome = Pass | Skip of string | Fail of string

type stats = {
  seeds : int;
  passed : int;
  skipped : int;
  cancelled : int;  (* seeds never started: deadline hit first *)
  failed : int;
  shrink_steps : int;
}

(* Cap on simulated work per seed: interpreter firings plus device
   thread-firings, for all oracle iterations. *)
let default_max_firings = 400_000

let work_estimate (c : Swp_core.Compile.compiled) ~iters =
  let cfg = c.Swp_core.Compile.config in
  let rates = c.Swp_core.Compile.rates in
  let interp =
    cfg.Swp_core.Select.scale * Array.fold_left ( + ) 0 rates.Sdf.reps
  in
  let device = ref 0 in
  Array.iteri
    (fun v r -> device := !device + (r * cfg.Swp_core.Select.threads.(v)))
    cfg.Swp_core.Select.reps;
  iters * (interp + (2 * !device))

(* Check one stream end to end.  [Error] means a genuine bug somewhere in
   the pipeline: invariant violation, oracle disagreement, or a crash. *)
let check_stream ?(iters = 2) ?num_sms ?solver ?max_firings ~input s =
  match
    (try Ok (Flatten.flatten s) with Failure m -> Error ("flatten: " ^ m))
  with
  | Error m -> Error m
  | Ok g when
      (match Sdf.steady_state g with
      | Ok r -> Array.fold_left ( + ) 0 r.Sdf.reps > Gen.max_steady_firings
      | Error _ -> false) ->
    (* Scheduling cost grows with the instance count, so an oversized
       steady state must be rejected before compile, not after. *)
    Ok (Skip "steady state too large to schedule within the fuzz budget")
  | Ok g -> (
    match Swp_core.Compile.compile ?num_sms ?solver g with
    | Error m -> Ok (Skip ("compile: " ^ m))
    | Ok c ->
      let budget = Option.value max_firings ~default:default_max_firings in
      if work_estimate c ~iters > budget then
        Ok (Skip "steady state too large for the simulation budget")
      else begin
        match
          (try Invariants.all c with
          | Failure m -> Error ("crash: " ^ m)
          | Invalid_argument m -> Error ("crash: " ^ m)
          | Assert_failure _ -> Error "crash: assertion failure")
        with
        | Error m -> Error ("invariant: " ^ m)
        | Ok () -> (
          match
            (try Oracle.differential c ~input ~iters with
            | Failure m -> Error ("crash: " ^ m)
            | Invalid_argument m -> Error ("crash: " ^ m)
            | Assert_failure _ -> Error "crash: assertion failure"
            | Interp.Firing_violation m -> Error ("interp: " ^ m))
          with
          | Error m -> Error m
          | Ok () -> (
            (* all four backends must print structurally sound kernels
               for the program the oracle just validated *)
            match
              (try
                 let p = Kir.Lower.lower c in
                 let rec lint = function
                   | [] -> Ok ()
                   | t :: rest -> (
                     match Kir.Backend.emit_checked t p with
                     | Ok _ -> lint rest
                     | Error e -> Error ("lint: " ^ e))
                 in
                 lint Kir.Ir.all_targets
               with
              | Failure m -> Error ("crash: " ^ m)
              | Invalid_argument m -> Error ("crash: " ^ m)
              | Assert_failure _ -> Error "crash: assertion failure")
            with
            | Error m -> Error m
            | Ok () -> Ok Pass))
      end)

let check_outcome ?iters ?num_sms ?solver ?max_firings ~input s =
  match check_stream ?iters ?num_sms ?solver ?max_firings ~input s with
  | Ok o -> o
  | Error m -> Fail m

let run_seed ?(cfg = Gen.default) ?iters ?num_sms ?solver ?max_firings seed =
  Obs.Metrics.inc m_seeds;
  let input = Gen.input ~seed in
  let s = Gen.stream ~cfg ~seed () in
  match check_outcome ?iters ?num_sms ?solver ?max_firings ~input s with
  | Pass ->
    Obs.Metrics.inc m_passed;
    Ok `Pass
  | Skip reason ->
    Obs.Metrics.inc m_skipped;
    Ok (`Skip reason)
  | Fail _ ->
    Obs.Metrics.inc m_mismatches;
    (* shrink under "still fails for any reason" — the minimal program may
       fail with a different (more primitive) message than the original *)
    let still_fails cand =
      match check_outcome ?iters ?num_sms ?solver ?max_firings ~input cand with
      | Fail _ -> true
      | Pass | Skip _ -> false
    in
    let small, steps = Shrink.shrink ~still_fails s in
    Obs.Metrics.add m_shrink_steps steps;
    let message =
      match check_outcome ?iters ?num_sms ?solver ?max_firings ~input small with
      | Fail m -> m
      | Pass | Skip _ -> "failure no longer reproduces on shrunk stream"
    in
    Error { seed; message; counterexample = small; shrink_steps = steps }

let run ?(cfg = Gen.default) ?iters ?num_sms ?solver ?max_firings
    ?(base_seed = 1) ?(jobs = 1) ?deadline ~seeds () =
  (* Every seed is an independent generate-compile-check unit, so the
     batch shards across a domain pool: [Par.Pool.map_result] joins in
     submission (= seed) order, and each seed's generation, shrinking
     and oracles are deterministic in the seed alone, so a sharded run
     visits exactly the serial run's seed set and reports exactly its
     failures, in the same order.

     Containment: a crash while checking one seed (a worker fault) must
     not take the whole campaign down — it is recorded as that seed's
     failure, with the generated program as the counterexample, and the
     remaining seeds still run.  [deadline] (wall-clock seconds) opts
     into cooperative cancellation: seeds not yet started when it
     passes are counted as [cancelled], never silently dropped. *)
  let seed_list = List.init seeds (fun i -> base_seed + i) in
  let check seed = run_seed ~cfg ?iters ?num_sms ?solver ?max_firings seed in
  let should_stop =
    Option.map
      (fun d ->
        let t_end = Resil.Clock.now () +. d in
        fun () -> Resil.Clock.now () > t_end)
      deadline
  in
  let contain index seed =
    match should_stop with
    | Some stop when stop () ->
      Error
        {
          Par.Pool.index;
          exn = Par.Pool.Cancelled;
          backtrace = Printexc.get_callstack 0;
        }
    | _ -> (
      try Ok (check seed)
      with e ->
        Error
          { Par.Pool.index; exn = e; backtrace = Printexc.get_raw_backtrace () })
  in
  let results =
    if jobs <= 1 || Par.Pool.in_task () then List.mapi contain seed_list
    else
      Par.Pool.with_pool ~domains:jobs (fun p ->
          Par.Pool.map_result p ?should_stop check seed_list)
  in
  let failures = ref [] in
  let passed = ref 0
  and skipped = ref 0
  and cancelled = ref 0
  and shrink_steps = ref 0 in
  List.iter2
    (fun seed outcome ->
      match outcome with
      | Ok (Ok `Pass) -> incr passed
      | Ok (Ok (`Skip _)) -> incr skipped
      | Ok (Error (f : failure)) ->
        shrink_steps := !shrink_steps + f.shrink_steps;
        failures := f :: !failures
      | Error { Par.Pool.exn = Par.Pool.Cancelled; _ } ->
        Obs.Metrics.inc m_cancelled;
        incr cancelled
      | Error { Par.Pool.exn; _ } ->
        (* contained worker crash: report it against its seed with the
           un-shrunk generated program as the counterexample *)
        Obs.Metrics.inc m_crashes;
        failures :=
          {
            seed;
            message = "crash: " ^ Printexc.to_string exn;
            counterexample = Gen.stream ~cfg ~seed ();
            shrink_steps = 0;
          }
          :: !failures)
    seed_list results;
  let failures = List.rev !failures in
  ( {
      seeds;
      passed = !passed;
      skipped = !skipped;
      cancelled = !cancelled;
      failed = List.length failures;
      shrink_steps = !shrink_steps;
    },
    failures )

let pp_failure fmt f =
  Format.fprintf fmt
    "@[<v>seed %d (shrunk in %d steps):@,  %s@,@,%a@]" f.seed f.shrink_steps
    f.message Ast.pp f.counterexample

let pp_stats fmt s =
  Format.fprintf fmt
    "%d seeds: %d passed, %d skipped, %d failed%s%s" s.seeds s.passed s.skipped
    s.failed
    (if s.failed > 0 then Printf.sprintf " (%d shrink steps)" s.shrink_steps
     else "")
    (if s.cancelled > 0 then
       Printf.sprintf ", %d cancelled by deadline" s.cancelled
     else "")
