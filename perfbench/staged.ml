(* The compile pipeline called stage by stage through each layer's public
   function, with a bench-side span around every call:

     Sdf.steady_state -> Profile.run -> Select.select -> Ii_search.search
     -> Buffer_layout.size_buffers

   It makes the same calls, with the same defaults, as
   [Swp_core.Compile.compile] on an unbudgeted compile, so it yields the
   same schedule, attempt log and kernel bytes (the benchmark's tests
   check this on every registry program); what it adds is a timing per
   stage.  The counts a stage already exposes (work units, the attempt
   log, the profile memo, the metrics registry) are added to
   {!Layers}. *)

module C = Swp_core.Compile
module S = Swp_core.Ii_search

let arch = Gpusim.Arch.geforce_8800_gts_512
let ( let* ) = Result.bind

(* Counters of the portfolio's winning arms, read as before/after
   deltas from the metrics registry. *)
let arms = [ "ffd"; "bfd"; "bal"; "exact"; "lns" ]

let arm_counter a = Obs.Metrics.counter ~labels:[ ("arm", a) ] "portfolio.arm_won"

let ms s = s *. 1000.0

let record_search (st : S.stats) =
  let log = st.S.attempt_log in
  let sum f = List.fold_left (fun acc a -> acc + f a) 0 log in
  Layers.add "ii_search.attempts" (float_of_int (List.length log));
  Layers.add "ii_search.work_units"
    (float_of_int (sum (fun a -> a.S.work_units)));
  Layers.add "lp.pivots" (float_of_int (sum (fun a -> a.S.lp_pivots)));
  Layers.add "lp.bb_nodes" (float_of_int (sum (fun a -> a.S.bb_nodes)));
  List.iter
    (fun (a : S.attempt) ->
      if a.S.tried_exact then begin
        Layers.incr "ii_search.exact.tries";
        Layers.add "ii_search.exact.ms" (ms a.S.solve_time_s);
        if a.S.feasible && a.S.arm = "exact" then Layers.incr "exact.wins"
      end)
    log;
  if st.S.lower_bound > 0 then
    Layers.add "ii_search.gap_pct"
      (100.0
      *. float_of_int (st.S.achieved_ii - st.S.lower_bound)
      /. float_of_int st.S.lower_bound)

let compile ?(num_sms = arch.Gpusim.Arch.num_sms) ?(coarsening = 1) graph =
  let* () = Streamit.Graph.validate graph in
  let* rates =
    Span.with_ "streamit.sdf" (fun () -> Streamit.Sdf.steady_state graph)
  in
  let memo0 = Swp_core.Profile.memo_stats () in
  let tok_profile = Resil.Budget.create ~label:"profile" () in
  let profile =
    Span.with_ "profile" (fun () ->
        Swp_core.Profile.run ~budget:tok_profile arch graph
          ~mode:Swp_core.Profile.Coalesced)
  in
  let memo1 = Swp_core.Profile.memo_stats () in
  let hits = memo1.node_hits - memo0.node_hits
  and misses = memo1.node_misses - memo0.node_misses in
  Layers.add "profile.cells" (float_of_int (Resil.Budget.consumed tok_profile));
  Layers.add "profile.memo_lookups" (float_of_int (hits + misses));
  Layers.add "profile.memo_hits" (float_of_int hits);
  let tok_select = Resil.Budget.create ~label:"select" () in
  let* config =
    Span.with_ "select" (fun () ->
        Swp_core.Select.select ~budget:tok_select graph rates profile)
  in
  Layers.add "select.work" (float_of_int (Resil.Budget.consumed tok_select));
  let won0 = List.map (fun a -> Obs.Metrics.value (arm_counter a)) arms in
  let* schedule, stats =
    Span.with_ "ii_search" (fun () ->
        Result.map_error
          (fun (e : S.error) -> e.S.message)
          (S.search ~budget:S.default_budget graph config ~num_sms))
  in
  List.iter2
    (fun a w0 ->
      Layers.add ("ii_search.arm_won." ^ a)
        (float_of_int (Obs.Metrics.value (arm_counter a) - w0)))
    arms won0;
  record_search stats;
  let sizing =
    Span.with_ "layout" (fun () ->
        Swp_core.Buffer_layout.size_buffers graph schedule ~coarsening)
  in
  Layers.add "layout.bytes"
    (float_of_int sizing.Swp_core.Buffer_layout.total_bytes);
  let quality =
    if stats.S.refined then C.Refined
    else if stats.S.used_exact then C.Exact
    else C.Heuristic
  in
  Ok
    {
      C.arch;
      scheme = C.Swp_coalesced;
      graph;
      rates;
      profile;
      config;
      schedule;
      search_stats = stats;
      sizing;
      coarsening;
      quality;
      prov =
        {
          C.stage_spends = [];
          ledger_total = 0;
          rationale = C.Completed;
          fallback_seed_ii = None;
          total_wall_s = 0.0;
        };
    }

let printers =
  [
    (Kir.Ir.Cuda, "kir.print.cuda");
    (Kir.Ir.Wgsl, "kir.print.wgsl");
    (Kir.Ir.Opencl, "kir.print.opencl");
    (Kir.Ir.Metal, "kir.print.metal");
  ]

let print_lines src =
  Layers.add "kir.lines"
    (float_of_int (List.length (String.split_on_char '\n' src)))

(* Lowering and the CUDA printer: the codegen half of a compile job. *)
let lower_cuda (c : C.compiled) =
  let p = Span.with_ "kir.lower" (fun () -> Kir.Lower.lower c) in
  let cuda =
    Span.with_ "kir.print.cuda" (fun () -> Kir.Backend.emit Kir.Ir.Cuda p)
  in
  print_lines cuda;
  (p, cuda)

(* The other three printers, and the structural lint of all four
   kernels, each under its own span ([lint_span] names the lint's). *)
let other_printers ?(lint_span = "kir.lint") p ~cuda =
  List.fold_left
    (fun acc (t, name) ->
      Result.bind acc (fun () ->
          let src =
            if t = Kir.Ir.Cuda then cuda
            else Span.with_ name (fun () -> Kir.Backend.emit t p)
          in
          Result.map_error
            (fun e -> "lint: " ^ Kir.Ir.target_name t ^ ": " ^ e)
            (Span.with_ lint_span (fun () -> Kir.Lint.check t p src))))
    (Ok ()) printers

(* Time the schedule on the simulated GPU. *)
let execute (c : C.compiled) =
  let gt = Span.with_ "executor" (fun () -> Swp_core.Executor.time_swp c) in
  let sched_ii = c.C.schedule.Swp_core.Swp_schedule.ii in
  Layers.incr "executor.runs";
  Layers.add "executor.log_exec_over_sched"
    (log (float_of_int gt.Swp_core.Executor.ii_cycles /. float_of_int sched_ii));
  if
    gt.Swp_core.Executor.ii_cycles
    = gt.Swp_core.Executor.bus_cycles + arch.Gpusim.Arch.sync_cycles
  then Layers.incr "executor.bus_bound";
  gt
