(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. V) on the simulated GeForce 8800 GTS 512, plus
   Bechamel micro-benchmarks of the compiler itself.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- table1 table2 fig10 fig11 ilpstats solvertime coalesce micro
*)

open Streamit

let arch = Gpusim.Arch.geforce_8800_gts_512

(* Compile results are shared across experiments. *)
type compiled_bench = {
  entry : Benchmarks.Registry.entry;
  graph : Graph.t;
  swp : Swp_core.Compile.compiled;
  swpnc : Swp_core.Compile.compiled option;
}

let compile_all () =
  List.map
    (fun (e : Benchmarks.Registry.entry) ->
      let graph = Flatten.flatten (e.stream ()) in
      let swp =
        match Swp_core.Compile.compile graph with
        | Ok c -> c
        | Error m -> failwith (e.name ^ ": " ^ m)
      in
      let swpnc =
        match
          Swp_core.Compile.compile ~scheme:Swp_core.Compile.Swp_non_coalesced
            graph
        with
        | Ok c -> Some c
        | Error _ -> None
      in
      { entry = e; graph; swp; swpnc })
    Benchmarks.Registry.all

let speedup_of cb cycles =
  match
    Swp_core.Executor.speedup ~arch ~graph:cb.graph
      ~gpu_cycles_per_steady:cycles ()
  with
  | Ok s -> s
  | Error m -> failwith m

let swp_speedup cb ~coarsening c =
  let cn = Swp_core.Compile.recoarsen c coarsening in
  speedup_of cb (Swp_core.Executor.time_swp cn).Swp_core.Executor.cycles_per_steady

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let line () = print_endline (String.make 78 '-')

(* Machine-readable results: one BENCH_*.json document per section. *)
let write_json path doc =
  let oc = open_out path in
  output_string oc (Obs.Report.to_string_indent doc);
  close_out oc

(* [x] rounded to [digits] decimals, so recorded timings print short. *)
let round digits x =
  let m = 10.0 ** float_of_int digits in
  Float.round (x *. m) /. m

(* --- Table I: benchmark suite --- *)

let table1 benches =
  print_endline "\n=== Table I: Benchmarks Evaluated ===";
  line ();
  Printf.printf "%-12s %8s %8s %10s %10s  %s\n" "Benchmark" "Filters"
    "(paper)" "Peeking" "(paper)" "Description";
  line ();
  List.iter
    (fun cb ->
      let e = cb.entry in
      Printf.printf "%-12s %8d %8d %10d %10d  %s\n" e.name
        (Benchmarks.Registry.our_filters e)
        e.paper_filters
        (Benchmarks.Registry.our_peeking e)
        e.paper_peeking e.description)
    benches;
  line ();
  print_endline
    "note: our re-implementations are somewhat coarser-grained than the\n\
     StreamIt 2.1.1 sources (fewer but heavier filters); peeking counts\n\
     match Table I exactly for Filterbank and FMRadio."

(* --- Table II: buffer requirements of SWP8 --- *)

let table2 benches =
  print_endline "\n=== Table II: Buffer requirements (bytes), SWP8 ===";
  line ();
  Printf.printf "%-12s %16s %16s %8s\n" "Benchmark" "ours (SWP8)" "paper" "ratio";
  line ();
  List.iter
    (fun cb ->
      let c8 = Swp_core.Compile.recoarsen cb.swp 8 in
      let b = c8.Swp_core.Compile.sizing.Swp_core.Buffer_layout.total_bytes in
      Printf.printf "%-12s %16d %16d %8.2f\n" cb.entry.name b
        cb.entry.paper_buffer_bytes
        (float_of_int b /. float_of_int cb.entry.paper_buffer_bytes))
    benches;
  line ()

(* --- Figure 10: SWPNC vs Serial vs SWP8 --- *)

let fig10 benches =
  print_endline
    "\n=== Figure 10: speedup over single-threaded CPU (SWPNC / Serial / SWP8) ===";
  line ();
  Printf.printf "%-12s %10s %10s %10s\n" "Benchmark" "SWPNC" "Serial" "SWP8";
  line ();
  let cols = ref ([], [], []) in
  List.iter
    (fun cb ->
      let c8 = Swp_core.Compile.recoarsen cb.swp 8 in
      let swp8 = swp_speedup cb ~coarsening:8 cb.swp in
      let serial =
        match
          Swp_core.Executor.time_serial
            ~batch:(64 * cb.swp.Swp_core.Compile.config.Swp_core.Select.scale)
            cb.graph
            ~budget_bytes:c8.Swp_core.Compile.sizing.Swp_core.Buffer_layout.total_bytes
        with
        | Ok st -> speedup_of cb st.Swp_core.Executor.cycles_per_steady
        | Error m -> failwith m
      in
      let swpnc =
        match cb.swpnc with
        | Some c -> swp_speedup cb ~coarsening:8 c
        | None -> nan
      in
      let a, b, c = !cols in
      cols := (swpnc :: a, serial :: b, swp8 :: c);
      Printf.printf "%-12s %10.2f %10.2f %10.2f\n" cb.entry.name swpnc serial swp8)
    benches;
  line ();
  let a, b, c = !cols in
  Printf.printf "%-12s %10.2f %10.2f %10.2f\n" "GeoMean" (geomean a) (geomean b)
    (geomean c);
  line ();
  print_endline
    "expected shape (paper): SWP8 wins everywhere except DCT and MatrixMult,\n\
     where the Serial SAS baseline is slightly ahead; SWPNC collapses except\n\
     where per-filter working sets fit in shared memory."

(* --- Figure 11: coarsening sweep --- *)

let fig11 benches =
  print_endline "\n=== Figure 11: SWP coarsening sweep (SWP1/4/8/16) ===";
  line ();
  Printf.printf "%-12s %9s %9s %9s %9s\n" "Benchmark" "SWP" "SWP4" "SWP8" "SWP16";
  line ();
  let acc = Array.make 4 [] in
  List.iter
    (fun cb ->
      let sp = List.map (fun n -> swp_speedup cb ~coarsening:n cb.swp) [ 1; 4; 8; 16 ] in
      List.iteri (fun i s -> acc.(i) <- s :: acc.(i)) sp;
      match sp with
      | [ a; b; c; d ] ->
        Printf.printf "%-12s %9.2f %9.2f %9.2f %9.2f\n" cb.entry.name a b c d
      | _ -> assert false)
    benches;
  line ();
  Printf.printf "%-12s %9.2f %9.2f %9.2f %9.2f\n" "GeoMean" (geomean acc.(0))
    (geomean acc.(1)) (geomean acc.(2)) (geomean acc.(3));
  line ();
  print_endline "expected shape (paper): gains plateau between SWP4 and SWP8."

(* --- ILP statistics (Sec. V-B text) --- *)

let ilpstats benches =
  print_endline "\n=== ILP / II-search statistics (Sec. V-B) ===";
  line ();
  Printf.printf "%-12s %10s %10s %10s %9s %8s %s\n" "Benchmark" "instances"
    "II bound" "achieved" "relax%" "attempts" "solver";
  line ();
  List.iter
    (fun cb ->
      let st = cb.swp.Swp_core.Compile.search_stats in
      Printf.printf "%-12s %10d %10d %10d %9.1f %8d %s\n" cb.entry.name
        (Swp_core.Instances.num_instances cb.swp.Swp_core.Compile.config)
        st.Swp_core.Ii_search.lower_bound st.Swp_core.Ii_search.achieved_ii
        (100.0 *. st.Swp_core.Ii_search.relaxation)
        st.Swp_core.Ii_search.attempts
        (if st.Swp_core.Ii_search.used_exact then "exact ILP" else "heuristic"))
    benches;
  line ();
  print_endline "per-attempt solver effort (candidate II / solver / result):";
  List.iter
    (fun cb ->
      let st = cb.swp.Swp_core.Compile.search_stats in
      Printf.printf "  %s:\n" cb.entry.name;
      List.iter
        (fun (a : Swp_core.Ii_search.attempt) ->
          Format.printf "    %a@." Swp_core.Ii_search.pp_attempt a)
        st.Swp_core.Ii_search.attempt_log)
    benches;
  line ();
  (* exact-vs-heuristic cross check on a small graph *)
  print_endline "exact ILP cross-check (2 SMs, 2-filter multirate graph):";
  let a =
    Kernel.Build.(
      Kernel.make_filter ~name:"A" ~pop:1 ~push:2 [ push pop; push (f 0.0) ])
  in
  let b =
    Kernel.Build.(
      Kernel.make_filter ~name:"B" ~pop:3 ~push:1 [ push (pop +: pop +: pop) ])
  in
  let g = Flatten.flatten (Ast.pipeline "ab" [ Ast.Filter a; Ast.Filter b ]) in
  (match
     ( Swp_core.Compile.compile ~num_sms:2
         ~solver:(Swp_core.Ii_search.Exact 4000) g,
       Swp_core.Compile.compile ~num_sms:2 ~solver:Swp_core.Ii_search.Heuristic g )
   with
  | Ok ce, Ok ch ->
    Printf.printf "  exact II=%d, heuristic II=%d (bound %d)\n"
      ce.Swp_core.Compile.schedule.Swp_core.Swp_schedule.ii
      ch.Swp_core.Compile.schedule.Swp_core.Swp_schedule.ii
      ce.Swp_core.Compile.search_stats.Swp_core.Ii_search.lower_bound
  | Error m, _ | _, Error m -> Printf.printf "  cross-check failed: %s\n" m);
  line ()

(* --- Solver-performance benchmark (BENCH_solver.json) --- *)

(* One II search measured two ways.

   "current" is the production stack: two-tier rationals, sparse tableau
   rows, the instance/dependence expansion derived once per search, and
   (in Exact mode) branch-and-bound warm-started from the heuristic
   schedule.

   "baseline" emulates the solver as it stood before those optimizations:
   the expansion is re-derived at every candidate II, the ILP starts with
   no incumbent, every LP relaxation runs on the dense reference tableau,
   and the default search still rescues a failed first-fit packing near
   the bound with a 1 s exact ILP solve on small problems.  The rational fast path cannot be switched off, so baseline
   times are a *lower bound* on the true pre-optimization cost and the
   reported speedups are conservative. *)

type solver_measurement = {
  time_s : float;
  lp_pivots : int;
  bb_nodes : int;
  result_ii : int;  (* -1 when the search failed or was capped *)
  capped : bool;
}

let baseline_search ~solver ~cap_s g cfg ~num_sms =
  let t0 = Unix.gettimeofday () in
  let lb = Swp_core.Mii.lower_bound g cfg ~num_sms in
  let near_bound ii = ii <= lb + (lb / 50) + 2 in
  let pivots = ref 0 and nodes = ref 0 in
  let bump bb =
    match !bb with
    | Some (s : Lp.Branch_bound.stats) ->
      pivots := !pivots + s.lp_pivots;
      nodes := !nodes + s.nodes_explored
    | None -> ()
  in
  let max_ii = (5 * lb) + 1 in
  let rec loop ii =
    if Unix.gettimeofday () -. t0 > cap_s then (-1, true)
    else if ii > max_ii then (-1, false)
    else begin
      let feasible =
        match solver with
        | `Heuristic budget -> (
          match Swp_core.Heuristic.solve g cfg ~num_sms ~ii with
          | `Schedule _ -> true
          | `Infeasible ->
            if
              Swp_core.Instances.num_instances cfg * num_sms > 96
              || not (near_bound ii)
            then false
            else begin
              let bb = ref None in
              let r =
                Swp_core.Ilp.solve ~node_budget:budget ~time_budget_s:1.0
                  ~stats:bb ~use_reference_lp:true g cfg ~num_sms ~ii
              in
              bump bb;
              match r with `Schedule _ -> true | _ -> false
            end)
        | `Exact budget ->
          (* 60s rather than the paper's 20s so the dense baseline can
             finish its cold solve at the first feasible II instead of
             cascading through budget-exhausted relaxations *)
          let bb = ref None in
          let r =
            Swp_core.Ilp.solve ~node_budget:budget ~time_budget_s:60.0
              ~stats:bb ~use_reference_lp:true g cfg ~num_sms ~ii
          in
          bump bb;
          (match r with `Schedule _ -> true | _ -> false)
      in
      if feasible then (ii, false)
      else
        loop
          (max (ii + 1)
             (int_of_float (Float.round (float_of_int ii *. 1.005))))
    end
  in
  let result_ii, capped = loop lb in
  {
    time_s = Unix.gettimeofday () -. t0;
    lp_pivots = !pivots;
    bb_nodes = !nodes;
    result_ii;
    capped;
  }

let current_search ~solver g cfg ~num_sms =
  let s =
    match solver with
    | `Heuristic _ -> Swp_core.Ii_search.Heuristic
    | `Exact b -> Swp_core.Ii_search.Exact b
  in
  let t0 = Unix.gettimeofday () in
  let r = Swp_core.Ii_search.search ~solver:s g cfg ~num_sms in
  let time_s = Unix.gettimeofday () -. t0 in
  match r with
  | Error _ -> { time_s; lp_pivots = 0; bb_nodes = 0; result_ii = -1; capped = false }
  | Ok (sched, st) ->
    let pivots, nodes =
      List.fold_left
        (fun (p, n) (a : Swp_core.Ii_search.attempt) ->
          (p + a.lp_pivots, n + a.bb_nodes))
        (0, 0) st.Swp_core.Ii_search.attempt_log
    in
    {
      time_s;
      lp_pivots = pivots;
      bb_nodes = nodes;
      result_ii = sched.Swp_core.Swp_schedule.ii;
      capped = false;
    }

let solvertime () =
  print_endline "\n=== Solver wall-time: optimized stack vs pre-optimization baseline ===";
  line ();
  Printf.printf "%-18s %12s %12s %9s %10s %10s\n" "Workload" "baseline(s)"
    "current(s)" "speedup" "base piv" "cur piv";
  line ();
  let config_of g =
    let rates = Result.get_ok (Sdf.steady_state g) in
    let prof = Swp_core.Profile.run arch g ~mode:Swp_core.Profile.Coalesced in
    Result.get_ok (Swp_core.Select.select g rates prof)
  in
  (* The default (heuristic) search on the full suite at 16 SMs, plus
     Exact-mode workloads where the ILP genuinely runs: rate-matched
     chains whose heuristic schedule is feasible right at the II bound
     (warm start turns the cold branch-and-bound search into a
     verification), and the test suite's multirate ab pipeline whose II
     bound is unreachable by any packing — an infeasibility-proving
     stress where the sparse tableau is the whole difference. *)
  let mk_chain n =
    let fs =
      List.init n (fun idx ->
          let nm = Printf.sprintf "F%d" idx in
          Kernel.Build.(
            Kernel.make_filter ~name:nm ~pop:1 ~push:1 [ push (pop +: f 1.0) ]))
    in
    Flatten.flatten (Ast.pipeline "chain" (List.map (fun k -> Ast.Filter k) fs))
  in
  let ab_graph () =
    let a =
      Kernel.Build.(
        Kernel.make_filter ~name:"A" ~pop:1 ~push:2 [ push pop; push (f 0.0) ])
    in
    let b =
      Kernel.Build.(
        Kernel.make_filter ~name:"B" ~pop:3 ~push:1 [ push (pop +: pop +: pop) ])
    in
    Flatten.flatten (Ast.pipeline "ab" [ Ast.Filter a; Ast.Filter b ])
  in
  let workloads =
    List.map
      (fun (e : Benchmarks.Registry.entry) ->
        ( e.name ^ "/heur16",
          Flatten.flatten (e.stream ()),
          `Heuristic 2000,
          16,
          10.0 ))
      Benchmarks.Registry.all
    @ [
        ("chain8/exact4", mk_chain 8, `Exact 4000, 4, 300.0);
        ("chain12/exact4", mk_chain 12, `Exact 4000, 4, 300.0);
        ("ab/exact2", ab_graph (), `Exact 200, 2, 300.0);
      ]
  in
  let rows =
    List.map
      (fun (name, g, solver, num_sms, cap_s) ->
        let cfg = config_of g in
        let cur = current_search ~solver g cfg ~num_sms in
        let base = baseline_search ~solver ~cap_s g cfg ~num_sms in
        let speedup = base.time_s /. cur.time_s in
        Printf.printf "%-18s %12.4f %12.4f %8.1fx %10d %10d%s\n" name
          base.time_s cur.time_s speedup base.lp_pivots cur.lp_pivots
          (if base.capped then "  (baseline capped)" else "");
        (name, base, cur))
      workloads
  in
  line ();
  let tot f = List.fold_left (fun acc (_, b, c) -> acc +. f b c) 0.0 rows in
  let base_total = tot (fun b _ -> b.time_s)
  and cur_total = tot (fun _ c -> c.time_s) in
  Printf.printf "%-18s %12.4f %12.4f %8.1fx\n" "TOTAL" base_total cur_total
    (base_total /. cur_total);
  let mismatches =
    List.filter
      (fun (_, (b : solver_measurement), (c : solver_measurement)) ->
        (not b.capped) && b.result_ii >= 0 && b.result_ii <> c.result_ii)
      rows
  in
  List.iter
    (fun (name, (b : solver_measurement), (c : solver_measurement)) ->
      Printf.printf "  NOTE %s: baseline II=%d, current II=%d\n" name
        b.result_ii c.result_ii)
    mismatches;
  line ();
  (* machine-readable record, consumed by the acceptance check *)
  let field (m : solver_measurement) =
    Obs.Report.(
      Obj
        [
          ("time_s", Float (round 6 m.time_s));
          ("lp_pivots", Int m.lp_pivots);
          ("bb_nodes", Int m.bb_nodes);
          ("ii", Int m.result_ii);
          ("capped", Bool m.capped);
        ])
  in
  write_json "BENCH_solver.json"
    Obs.Report.(
      Obj
        [
          ( "note",
            Str
              "baseline emulates the pre-optimization solver stack (dense \
               tableau, cold branch-and-bound, per-II re-expansion); the \
               rational fast path cannot be disabled, so baseline times are \
               a lower bound and speedups conservative; baseline pivot \
               counts only cover relaxations solved to optimality" );
          ( "workloads",
            Arr
              (List.map
                 (fun (name, b, c) ->
                   Obj
                     [
                       ("name", Str name);
                       ("baseline", field b);
                       ("current", field c);
                       ("speedup", Float (round 2 (b.time_s /. c.time_s)));
                     ])
                 rows) );
          ( "total",
            Obj
              [
                ("baseline_s", Float (round 6 base_total));
                ("current_s", Float (round 6 cur_total));
                ("speedup", Float (round 2 (base_total /. cur_total)));
              ] );
        ]);
  Printf.printf "wrote BENCH_solver.json (total speedup %.1fx)\n"
    (base_total /. cur_total)

(* --- Coalescing ablation (Sec. IV-D / Figs. 8-9) --- *)

let coalesce_ablation () =
  print_endline
    "\n=== Ablation: buffer-layout coalescing (warp transactions per firing) ===";
  line ();
  Printf.printf "%-8s %18s %24s\n" "rate" "natural layout" "shuffled layout (eq. 10)";
  line ();
  List.iter
    (fun rate ->
      let nat =
        Gpusim.Coalesce.transactions_per_firing arch ~rate ~threads:512
          ~shuffled:false
      in
      let shf =
        Gpusim.Coalesce.transactions_per_firing arch ~rate ~threads:512
          ~shuffled:true
      in
      Printf.printf "%-8d %12d trans %18d trans  (%.1fx fewer)\n" rate nat shf
        (float_of_int nat /. float_of_int shf))
    [ 1; 2; 4; 8; 16; 64 ];
  line ();
  print_endline "shared-memory bank-conflict degrees (16 banks, Fig. 8):";
  List.iter
    (fun stride ->
      Printf.printf "  stride %-3d -> degree %d\n" stride
        (Gpusim.Coalesce.shared_bank_conflict_degree arch ~tid_to_index:(fun t ->
             t * stride)))
    [ 1; 2; 4; 8; 16 ];
  line ()

(* --- Ablation: SM scaling --- *)

let smsweep () =
  print_endline
    "\n=== Ablation: SWP8 speedup vs. number of SMs (pipeline scalability) ===";
  line ();
  let sm_counts = [ 2; 4; 8; 16 ] in
  Printf.printf "%-12s" "Benchmark";
  List.iter (fun p -> Printf.printf " %8s" (Printf.sprintf "%d SMs" p)) sm_counts;
  print_newline ();
  line ();
  (* the (benchmark, SM count) grid is embarrassingly parallel: each
     cell is one full compile, fanned out over the global pool (serial
     at the default --jobs 1) and printed in grid order afterwards *)
  let names = [ "Bitonic"; "DES"; "FMRadio"; "DCT" ] in
  let cells =
    List.concat_map
      (fun name ->
        let e = Option.get (Benchmarks.Registry.find name) in
        let graph = Flatten.flatten (e.Benchmarks.Registry.stream ()) in
        List.map (fun num_sms -> (name, graph, num_sms)) sm_counts)
      names
  in
  let results =
    Par.Pool.map_auto
      (fun (_, graph, num_sms) ->
        match Swp_core.Compile.compile ~num_sms ~coarsening:8 graph with
        | Error _ -> None
        | Ok c ->
          let gt = Swp_core.Executor.time_swp c in
          (match
             Swp_core.Executor.speedup ~arch ~graph
               ~gpu_cycles_per_steady:gt.Swp_core.Executor.cycles_per_steady ()
           with
          | Ok s -> Some s
          | Error _ -> None))
      cells
  in
  List.iter
    (fun name ->
      Printf.printf "%-12s" name;
      List.iter2
        (fun (n, _, _) r ->
          if n = name then
            match r with
            | Some s -> Printf.printf " %8.2f" s
            | None -> Printf.printf " %8s" "-")
        cells results;
      print_newline ())
    names;
  line ();
  print_endline
    "compute-bound programs scale with SMs until the bus or pipeline depth\n\
     binds; bandwidth-bound ones (DCT) flatten early.";
  line ()

(* --- Pipeline stage breakdown (span tracing) --- *)

(* One traced end-to-end run per benchmark: construct -> flatten ->
   compile -> codegen -> execute with the span sink enabled, then read
   the per-stage wall time out of the recorded forest.  The stage set
   matches the span taxonomy of DESIGN.md; nested compile stages
   (profile/select/ii_search/buffer_layout) are disjoint, so their sum
   plus the top-level stages is the whole pipeline. *)
let pipeline_report () =
  print_endline "\n=== Pipeline stage breakdown (ms, span tracing) ===";
  line ();
  let stage_names =
    [
      "parse"; "flatten"; "profile"; "select"; "ii_search"; "buffer_layout";
      "codegen"; "execute";
    ]
  in
  Printf.printf "%-12s" "Benchmark";
  List.iter (fun s -> Printf.printf " %12s" s) stage_names;
  Printf.printf " %9s\n" "attempts";
  line ();
  Obs.Metrics.reset ();
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      Obs.Trace.reset ();
      Obs.Trace.enable ();
      let stream = Obs.Trace.with_span "parse" (fun () -> e.stream ()) in
      let graph = Flatten.flatten stream in
      (match Swp_core.Compile.compile graph with
      | Error m ->
        Obs.Trace.disable ();
        Printf.printf "%-12s compile failed: %s\n" e.name m
      | Ok c ->
        ignore (Kir.Backend.emit_compiled Kir.Ir.Cuda c);
        ignore (Swp_core.Executor.time_swp c);
        Obs.Trace.disable ();
        let dur name =
          List.fold_left
            (fun acc (s : Obs.Trace.span) -> acc +. (s.end_us -. s.start_us))
            0.0 (Obs.Trace.find_all name)
        in
        Printf.printf "%-12s" e.name;
        List.iter (fun s -> Printf.printf " %12.3f" (dur s /. 1000.0)) stage_names;
        Printf.printf " %9d\n"
          (List.length (Obs.Trace.find_all "ii_search.attempt"))))
    Benchmarks.Registry.all;
  line ();
  print_endline "aggregate metrics across the suite (counters/gauges/histograms):";
  Format.printf "%a@?" Obs.Metrics.pp_text ();
  line ()

(* --- Differential fuzzing statistics (lib/check) --- *)

(* A fixed-seed fuzz batch through the whole pipeline, reported from the
   metrics registry: how many random programs compile, how many the
   pipeline legitimately rejects, and how fast the three-way oracle
   (interpreter / functional simulator / replay) chews through them. *)
let fuzzstats () =
  print_endline "\n=== Differential fuzzing statistics (fixed seeds) ===";
  line ();
  Obs.Metrics.reset ();
  let t0 = Unix.gettimeofday () in
  let seeds = 40 in
  let stats, failures = Check.Fuzz.run ~seeds () in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "%-24s %8d\n" "seeds" stats.Check.Fuzz.seeds;
  Printf.printf "%-24s %8d\n" "passed (3-way agree)" stats.Check.Fuzz.passed;
  Printf.printf "%-24s %8d\n" "skipped (rejected)" stats.Check.Fuzz.skipped;
  Printf.printf "%-24s %8d\n" "failed" stats.Check.Fuzz.failed;
  Printf.printf "%-24s %8.1f\n" "seeds/s" (float_of_int seeds /. dt);
  List.iter
    (fun f -> Format.printf "%a@." Check.Fuzz.pp_failure f)
    failures;
  print_endline "metrics registry after the batch:";
  Format.printf "%a@?" Obs.Metrics.pp_text ();
  line ()

(* --- Parallel-compilation wall-clock (BENCH_par.json) --- *)

(* The whole registry compiled at SM counts 2/4/6/8, once serially and
   once fanned out over the domain pool, with the profile cache cleared
   between phases so both do the same work.  Besides the wall-clock
   comparison this doubles as an end-to-end determinism check: the two
   phases must produce identical schedules and byte-identical CUDA.

   On a single-core host the parallel phase cannot win (domains
   time-slice one core and pay the pool's coordination overhead on
   top), so the host's core count is recorded alongside the numbers. *)

(* The host a timing was taken on: CPU model (from /proc/cpuinfo where
   there is one), core count and OCaml version. *)
let host_description () =
  let model =
    try
      let ic = open_in "/proc/cpuinfo" in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec find () =
            let l = input_line ic in
            match String.index_opt l ':' with
            | Some i when String.trim (String.sub l 0 i) = "model name" ->
              String.trim (String.sub l (i + 1) (String.length l - i - 1))
            | _ -> find ()
          in
          find ())
    with Sys_error _ | End_of_file -> "unknown CPU"
  in
  Printf.sprintf "%s, %d core(s), OCaml %s" model
    (Domain.recommended_domain_count ())
    Sys.ocaml_version

let partime ~jobs =
  Printf.printf
    "\n=== Parallel compilation wall-clock (jobs=%d, %d core(s)) ===\n" jobs
    (Domain.recommended_domain_count ());
  line ();
  let sm_counts = [ 2; 4; 6; 8 ] in
  let benches =
    List.map
      (fun (e : Benchmarks.Registry.entry) ->
        (e.name, Flatten.flatten (e.stream ())))
      Benchmarks.Registry.all
  in
  let compile_one (graph, num_sms) =
    match Swp_core.Compile.compile ~num_sms ~coarsening:8 graph with
    | Error m -> failwith m
    | Ok c ->
      (c.Swp_core.Compile.schedule, Kir.Backend.emit_compiled Kir.Ir.Cuda c)
  in
  let timed jobs tasks =
    Par.Pool.set_jobs jobs;
    Swp_core.Profile.clear_cache ();
    let t0 = Unix.gettimeofday () in
    let out = Par.Pool.map_auto compile_one tasks in
    (Unix.gettimeofday () -. t0, out)
  in
  Printf.printf "%-12s %10s %10s %9s %10s\n" "Benchmark" "serial(s)"
    "par(s)" "speedup" "identical";
  line ();
  let rows =
    List.map
      (fun (name, graph) ->
        let tasks = List.map (fun sms -> (graph, sms)) sm_counts in
        let serial_s, serial_out = timed 1 tasks in
        let par_s, par_out = timed jobs tasks in
        let identical = serial_out = par_out in
        Printf.printf "%-12s %10.3f %10.3f %8.2fx %10s\n" name serial_s par_s
          (serial_s /. par_s)
          (if identical then "yes" else "NO");
        (name, serial_s, par_s, identical))
      benches
  in
  (* headline: the full 32-task grid in one fan-out *)
  let grid =
    List.concat_map
      (fun (_, graph) -> List.map (fun sms -> (graph, sms)) sm_counts)
      benches
  in
  let total_serial_s, _ = timed 1 grid in
  let total_par_s, _ = timed jobs grid in
  Par.Pool.set_jobs 1;
  line ();
  Printf.printf "%-12s %10.3f %10.3f %8.2fx\n" "TOTAL(grid)" total_serial_s
    total_par_s
    (total_serial_s /. total_par_s);
  line ();
  write_json "BENCH_par.json"
    Obs.Report.(
      Obj
        [
          ( "note",
            Str
              (Printf.sprintf
                 "full registry compiled at num_sms in {2,4,6,8}, serial vs \
                  a %d-domain pool; 'identical' asserts byte-identical \
                  schedules and CUDA across the two runs; speedups only \
                  exceed 1 when the host has spare cores"
                 jobs) );
          ("host", Str (host_description ()));
          ("host_cores", Int (Domain.recommended_domain_count ()));
          ("jobs", Int jobs);
          ( "benchmarks",
            Arr
              (List.map
                 (fun (name, s, p, identical) ->
                   Obj
                     [
                       ("name", Str name);
                       ("serial_s", Float (round 4 s));
                       ("parallel_s", Float (round 4 p));
                       ("speedup", Float (round 2 (s /. p)));
                       ("identical", Bool identical);
                     ])
                 rows) );
          ( "total",
            Obj
              [
                ("serial_s", Float (round 4 total_serial_s));
                ("parallel_s", Float (round 4 total_par_s));
                ("speedup", Float (round 2 (total_serial_s /. total_par_s)));
              ] );
        ]);
  Printf.printf "wrote BENCH_par.json (grid speedup %.2fx at jobs=%d)\n"
    (total_serial_s /. total_par_s)
    jobs

(* --- Degradation-ladder quality vs budget (BENCH_quality.json) --- *)

(* Every registry benchmark compiled under a descending ladder of
   work-unit budgets, down to zero.  The compiler must return Ok at
   every rung — the quality column records which rung of the
   exact/refined/heuristic/fallback ladder paid for it, and the achieved II
   quantifies what the budget bought. *)
(* achieved-over-bound gap, in percent of the bound *)
let gap_pct (st : Swp_core.Ii_search.stats) =
  if st.Swp_core.Ii_search.lower_bound <= 0 then 0.0
  else
    100.0
    *. float_of_int
         (st.Swp_core.Ii_search.achieved_ii - st.Swp_core.Ii_search.lower_bound)
    /. float_of_int st.Swp_core.Ii_search.lower_bound

let resil_bench () =
  print_endline "\n=== Quality vs work budget (degradation ladder) ===";
  line ();
  let budgets =
    [ None; Some 100_000; Some 1_000; Some 100; Some 25; Some 10; Some 0 ]
  in
  let bname = function None -> "unlimited" | Some b -> string_of_int b in
  Printf.printf "%-12s %10s %10s %10s %10s %8s %9s\n" "Benchmark" "budget"
    "quality" "II" "bound" "gap%" "attempts";
  line ();
  let rows =
    List.concat_map
      (fun (e : Benchmarks.Registry.entry) ->
        let g = Flatten.flatten (e.stream ()) in
        List.map
          (fun budget ->
            match Swp_core.Compile.compile ?budget ~coarsening:8 g with
            | Error m -> failwith (e.name ^ ": " ^ m)
            | Ok c ->
              let st = c.Swp_core.Compile.search_stats in
              let q =
                Swp_core.Compile.quality_name c.Swp_core.Compile.quality
              in
              Printf.printf "%-12s %10s %10s %10d %10d %8.2f %9d\n" e.name
                (bname budget) q st.Swp_core.Ii_search.achieved_ii
                st.Swp_core.Ii_search.lower_bound
                (gap_pct st) st.Swp_core.Ii_search.attempts;
              (e.name, budget, q, st))
          budgets)
      Benchmarks.Registry.all
  in
  line ();
  write_json "BENCH_quality.json"
    Obs.Report.(
      Obj
        [
          ( "note",
            Str
              "full registry compiled under descending II-search work-unit \
               budgets (null = unlimited); quality records the \
               degradation-ladder rung (exact/refined/heuristic/degraded) \
               and achieved_ii what the budget bought, and every rung must \
               compile Ok; gap_pct = 100*(achieved_ii - \
               lower_bound)/lower_bound against the sharpened combinatorial \
               lower bound" );
          ( "rows",
            Arr
              (List.map
                 (fun (name, budget, q, (st : Swp_core.Ii_search.stats)) ->
                   Obj
                     [
                       ("name", Str name);
                       ( "budget",
                         match budget with None -> Null | Some b -> Int b );
                       ("quality", Str q);
                       ("achieved_ii", Int st.Swp_core.Ii_search.achieved_ii);
                       ("lower_bound", Int st.Swp_core.Ii_search.lower_bound);
                       ("gap_pct", Float (round 3 (gap_pct st)));
                       ("attempts", Int st.Swp_core.Ii_search.attempts);
                     ])
                 rows) );
        ]);
  Printf.printf "wrote BENCH_quality.json (%d rows)\n" (List.length rows)

(* --- Serve-cache throughput hot vs cold (BENCH_serve.json) --- *)

(* The whole registry pushed through Cache.Service twice: a cold pass
   against a fresh service with the profile memo cleared (every request
   is a genuine compile) and a sustained hot loop against a warmed
   service (every request canonicalizes, hashes and hits).  The hot
   rate still pays the full keying cost — canonical serialization plus
   MD5 — so the speedup measures what the cache actually buys a
   long-lived daemon, not just a map lookup. *)

let serve_bench () =
  print_endline "\n=== Serve cache throughput (hot vs cold) ===";
  line ();
  let graphs =
    List.map
      (fun (e : Benchmarks.Registry.entry) ->
        (e.name, Flatten.flatten (e.stream ())))
      Benchmarks.Registry.all
  in
  let opts = Cache.Key.default_options in
  let cold_svc = Cache.Service.create () in
  Swp_core.Profile.clear_cache ();
  let t0 = Unix.gettimeofday () in
  let cold_rows =
    List.map
      (fun (name, g) ->
        let t = Unix.gettimeofday () in
        (match Cache.Service.get cold_svc g opts with
        | Ok (_, Cache.Service.Miss) -> ()
        | Ok (_, o) ->
          failwith
            (name ^ ": cold pass was not a miss: "
           ^ Cache.Service.outcome_name o)
        | Error m -> failwith (name ^ ": " ^ m));
        (name, Unix.gettimeofday () -. t))
      graphs
  in
  let cold_s = Unix.gettimeofday () -. t0 in
  let cold_n = List.length graphs in
  let cold_rate = float_of_int cold_n /. cold_s in
  (* hot: warm a fresh service once, then loop hits for >= 0.5s *)
  let svc = Cache.Service.create () in
  List.iter
    (fun (name, g) ->
      match Cache.Service.get svc g opts with
      | Ok _ -> ()
      | Error m -> failwith (name ^ ": " ^ m))
    graphs;
  let t0 = Unix.gettimeofday () in
  let reqs = ref 0 in
  while Unix.gettimeofday () -. t0 < 0.5 do
    List.iter
      (fun (name, g) ->
        (match Cache.Service.get svc g opts with
        | Ok (_, Cache.Service.Hit) -> ()
        | Ok (_, o) ->
          failwith
            (name ^ ": hot pass was not a hit: "
           ^ Cache.Service.outcome_name o)
        | Error m -> failwith (name ^ ": " ^ m));
        incr reqs)
      graphs
  done;
  let hot_s = Unix.gettimeofday () -. t0 in
  let hot_rate = float_of_int !reqs /. hot_s in
  let speedup = hot_rate /. cold_rate in
  Printf.printf "%-12s %10s %12s\n" "Benchmark" "cold(s)" "";
  line ();
  List.iter
    (fun (name, s) -> Printf.printf "%-12s %10.3f\n" name s)
    cold_rows;
  line ();
  Printf.printf "cold: %d compiles in %.3fs = %.1f compiles/s\n" cold_n cold_s
    cold_rate;
  Printf.printf "hot:  %d hits in %.3fs = %.1f compiles/s\n" !reqs hot_s
    hot_rate;
  Printf.printf "hot/cold speedup: %.1fx %s\n" speedup
    (if speedup >= 10.0 then "(>= 10x: OK)" else "(BELOW 10x)");
  write_json "BENCH_serve.json"
    Obs.Report.(
      Obj
        [
          ( "note",
            Str
              "full registry through Cache.Service: cold = fresh service + \
               cleared profile memo (every request compiles), hot = \
               sustained hit loop against a warmed service; hot requests \
               still pay canonical serialization + MD5, so the speedup is \
               the end-to-end gain a long-lived serve daemon sees" );
          ( "cold",
            Obj
              [
                ("compiles", Int cold_n);
                ("seconds", Float (round 4 cold_s));
                ("compiles_per_sec", Float (round 2 cold_rate));
              ] );
          ( "hot",
            Obj
              [
                ("requests", Int !reqs);
                ("seconds", Float (round 4 hot_s));
                ("compiles_per_sec", Float (round 2 hot_rate));
              ] );
          ("speedup", Float (round 1 speedup));
          ( "cold_per_benchmark",
            Arr
              (List.map
                 (fun (name, s) ->
                   Obj [ ("name", Str name); ("seconds", Float (round 4 s)) ])
                 cold_rows) );
        ]);
  Printf.printf "wrote BENCH_serve.json (speedup %.1fx)\n" speedup

(* --- Overload behaviour under a 4x-capacity burst (BENCH_harden.json) --- *)

(* The hardening contract under load: a burst of B = 4 * capacity
   distinct compiles against the admission guard must (a) shed exactly
   B - capacity requests, deterministically the *tail* of the arrival
   order, with the same pattern on every identical burst; (b) complete
   every admitted request successfully; (c) keep the queue bounded at
   the configured capacity (peak occupancy never exceeds it); and (d)
   answer sheds in microseconds, not compile-times. *)
let harden_bench () =
  print_endline "\n=== Serve overload (admission control + load shedding) ===";
  line ();
  let max_inflight = 2 and queue_cap = 2 in
  let capacity = max_inflight + queue_cap in
  let burst = 4 * capacity in
  let src i =
    Printf.sprintf
      "filter A pop 0 push 1 { push(1.0); } filter B pop 1 push 1 { \
       push(pop() * %d.0); } filter C pop 1 push 0 { let x = pop(); } \
       pipeline P { add A; add B; add C; }"
      (i + 2)
  in
  let burst_line () =
    Obs.Report.(
      to_string
        (Arr
           (List.init burst (fun i ->
                Obj
                  [
                    ("id", Int (i + 1));
                    ("op", Str "compile");
                    ("src", Str (src i));
                  ]))))
  in
  let statuses daemon =
    match Cache.Daemon.handle_line daemon (burst_line ()) with
    | `Shutdown _ -> failwith "harden: unexpected shutdown"
    | `Reply s -> (
      match Obs.Report.parse s with
      | Obs.Report.Arr docs ->
        List.map
          (fun d ->
            match Obs.Report.member "error" d with
            | Some (Obs.Report.Str e)
              when String.length e >= 10 && String.sub e 0 10 = "overloaded"
              -> "shed"
            | Some (Obs.Report.Str e) -> failwith ("harden: error: " ^ e)
            | _ -> "ok")
          docs
      | _ -> failwith "harden: batch reply is not an array")
  in
  let fresh () =
    let svc = Cache.Service.create () in
    let guard = Cache.Guard.create ~max_inflight ~queue_cap () in
    (Cache.Daemon.create ~guard svc, guard)
  in
  Gc.compact ();
  let heap0 = (Gc.quick_stat ()).Gc.top_heap_words in
  let d1, g1 = fresh () in
  let t0 = Unix.gettimeofday () in
  let run1 = statuses d1 in
  let burst_s = Unix.gettimeofday () -. t0 in
  let d2, _ = fresh () in
  let run2 = statuses d2 in
  let heap1 = (Gc.quick_stat ()).Gc.top_heap_words in
  let occ = Cache.Guard.occupancy g1 in
  let admitted = List.length (List.filter (( = ) "ok") run1) in
  let sheds = List.length (List.filter (( = ) "shed") run1) in
  let tail_shed =
    List.for_all2 (fun i s -> s = if i >= capacity then "shed" else "ok")
      (List.init burst Fun.id) run1
  in
  let deterministic = run1 = run2 in
  if admitted <> capacity then failwith "harden: admitted != capacity";
  if sheds <> burst - capacity then failwith "harden: wrong shed count";
  if not tail_shed then failwith "harden: sheds not at the arrival tail";
  if not deterministic then failwith "harden: shed pattern not reproducible";
  if occ.Cache.Guard.peak_outstanding > capacity then
    failwith "harden: queue exceeded its cap";
  Printf.printf
    "burst %d vs capacity %d: %d admitted (all ok), %d shed (tail, \
     reproducible), peak occupancy %d, %.3fs\n"
    burst capacity admitted sheds occ.Cache.Guard.peak_outstanding burst_s;
  write_json "BENCH_harden.json"
    Obs.Report.(
      Obj
        [
          ( "note",
            Str
              "a 4x-capacity burst of distinct compiles through the \
               production Cache.Daemon batch path: admission is serial in \
               arrival order, so exactly capacity requests are admitted (and \
               all complete) while the tail sheds with deterministic \
               overloaded+retry_after_ms responses; peak queue occupancy \
               never exceeds max_inflight + queue_cap, and heap growth stays \
               bounded by the admitted work, not the burst size" );
          ("max_inflight", Int max_inflight);
          ("queue_cap", Int queue_cap);
          ("capacity", Int capacity);
          ("burst", Int burst);
          ("admitted_completed_ok", Int admitted);
          ("shed", Int sheds);
          ("sheds_at_tail", Bool tail_shed);
          ("reproducible", Bool deterministic);
          ("peak_outstanding", Int occ.Cache.Guard.peak_outstanding);
          ("peak_work", Int occ.Cache.Guard.peak_work);
          ("burst_seconds", Float (round 4 burst_s));
          ("top_heap_words_before", Int heap0);
          ("top_heap_words_after", Int heap1);
        ]);
  Printf.printf "wrote BENCH_harden.json (%d/%d shed deterministically)\n"
    sheds burst

(* --- Bechamel micro-benchmarks of the compiler itself --- *)

let micro () =
  print_endline "\n=== Bechamel micro-benchmarks (compiler phases) ===";
  let open Bechamel in
  let g = Flatten.flatten (Benchmarks.Fm_radio.stream ()) in
  let rates = Result.get_ok (Sdf.steady_state g) in
  let prof = Swp_core.Profile.run arch g ~mode:Swp_core.Profile.Coalesced in
  let cfg = Result.get_ok (Swp_core.Select.select g rates prof) in
  let lb = Swp_core.Mii.lower_bound g cfg ~num_sms:16 in
  let tests =
    Test.make_grouped ~name:"phases"
      [
        Test.make ~name:"flatten(FMRadio)"
          (Staged.stage (fun () ->
               ignore (Flatten.flatten (Benchmarks.Fm_radio.stream ()))));
        Test.make ~name:"sdf_rates(FMRadio)"
          (Staged.stage (fun () -> ignore (Sdf.steady_state g)));
        Test.make ~name:"profile(FMRadio)"
          (Staged.stage (fun () ->
               ignore (Swp_core.Profile.run arch g ~mode:Swp_core.Profile.Coalesced)));
        Test.make ~name:"select(FMRadio)"
          (Staged.stage (fun () -> ignore (Swp_core.Select.select g rates prof)));
        Test.make ~name:"deps(FMRadio)"
          (Staged.stage (fun () -> ignore (Swp_core.Instances.deps g cfg)));
        Test.make ~name:"heuristic_schedule(FMRadio)"
          (Staged.stage (fun () ->
               ignore (Swp_core.Heuristic.solve g cfg ~num_sms:16 ~ii:(2 * lb))));
        Test.make ~name:"interp_steady_state(Bitonic)"
          (Staged.stage (fun () ->
               let gb = Flatten.flatten (Benchmarks.Bitonic.stream ()) in
               ignore
                 (Interp.run_steady_states gb
                    ~input:(fun i -> Types.VInt (i mod 97))
                    ~iters:1)));
      ]
  in
  let cfg_b = Benchmark.cfg ~quota:(Time.second 0.5) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg_b instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name o ->
      match Analyze.OLS.estimates o with
      | Some [ est ] -> Printf.printf "  %-40s %14.0f ns/run\n" name est
      | _ -> Printf.printf "  %-40s (no estimate)\n" name)
    results

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  (* --jobs N sets the domain-pool width for smsweep, and the parallel
     phase's width for partime (which defaults to 4 either way) *)
  let rec split_jobs = function
    | "--jobs" :: n :: rest ->
      let _, rest = split_jobs rest in
      (Some (int_of_string n), rest)
    | x :: rest ->
      let jobs, rest = split_jobs rest in
      (jobs, x :: rest)
    | [] -> (None, [])
  in
  let jobs_opt, args = split_jobs argv in
  (match jobs_opt with Some j -> Par.Pool.set_jobs j | None -> ());
  let jobs = Option.value jobs_opt ~default:4 in
  let want x = args = [] || List.mem x args in
  let benches =
    if
      List.exists want [ "table1"; "table2"; "fig10"; "fig11"; "ilpstats" ]
    then compile_all ()
    else []
  in
  if want "table1" then table1 benches;
  if want "table2" then table2 benches;
  if want "fig10" then fig10 benches;
  if want "fig11" then fig11 benches;
  if want "ilpstats" then ilpstats benches;
  if want "solvertime" then solvertime ();
  if want "pipeline" then pipeline_report ();
  if want "coalesce" then coalesce_ablation ();
  if want "smsweep" then smsweep ();
  if want "fuzzstats" then fuzzstats ();
  if want "partime" then partime ~jobs;
  if want "resil" then resil_bench ();
  if want "serve" then serve_bench ();
  if want "harden" then harden_bench ();
  if want "micro" then micro ()
