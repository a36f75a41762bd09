(* Flight-recorder report: the provenance record must explain the
   achieved II end-to-end — which bound was binding, which portfolio arm
   won, where the work units went — and must serialize byte-identically
   whatever --jobs is.  The degraded rungs must carry their rationale
   (budget exhaustion site / fault site / fallback seed II). *)

open Swp_core
module J = Obs.Report

let t name f = Alcotest.test_case name `Quick f

let compile_bench ?budget name =
  let e =
    match Benchmarks.Registry.find name with
    | Some e -> e
    | None -> Alcotest.failf "unknown benchmark %s" name
  in
  Profile.clear_cache ();
  let g = Streamit.Flatten.flatten (e.Benchmarks.Registry.stream ()) in
  match Compile.compile ?budget g with
  | Ok c -> c
  | Error m -> Alcotest.failf "%s failed to compile: %s" name m

let with_jobs n f =
  Par.Pool.set_jobs n;
  Fun.protect f ~finally:(fun () ->
      Par.Pool.set_jobs 1;
      Profile.clear_cache ())

let get_int doc p =
  match J.path p doc with
  | Some (J.Int v) -> v
  | _ -> Alcotest.failf "report field %s: not an Int" (String.concat "." p)

let get_str doc p =
  match J.path p doc with
  | Some (J.Str v) -> v
  | _ -> Alcotest.failf "report field %s: not a Str" (String.concat "." p)

let get_arr doc p =
  match J.path p doc with
  | Some (J.Arr v) -> v
  | _ -> Alcotest.failf "report field %s: not an Arr" (String.concat "." p)

let report_tests =
  [
    t "DES report explains the achieved II end-to-end" (fun () ->
        let c = compile_bench "DES" in
        let r = Report.assemble ~program:"DES" c in
        let doc = Report.to_doc r in
        let st = c.Compile.search_stats in
        (* The II story: achieved, bound, gap and the binding component. *)
        let achieved = get_int doc [ "ii"; "achieved" ] in
        let lb = get_int doc [ "ii"; "lower_bound" ] in
        Alcotest.(check int) "achieved matches stats"
          st.Ii_search.achieved_ii achieved;
        Alcotest.(check int) "gap = achieved - bound" (achieved - lb)
          (get_int doc [ "ii"; "gap" ]);
        Alcotest.(check int) "final bound component = lower bound" lb
          (get_int doc [ "ii"; "bounds"; "final" ]);
        let binding = get_str doc [ "ii"; "bounds"; "binding" ] in
        Alcotest.(check bool)
          ("binding bound is attributed: " ^ binding)
          true
          (List.mem binding
             [ "res_mii"; "res_mii_sharp"; "rec_mii"; "no_wrap"; "floor" ]);
        (* The binding name must actually point at a component equal to
           the final bound — the attribution is checkable, not a label. *)
        let component = function
          | "res_mii" -> st.Ii_search.bounds.Mii.res_classic
          | "res_mii_sharp" -> st.Ii_search.bounds.Mii.res_sharp
          | "rec_mii" -> st.Ii_search.bounds.Mii.recurrence
          | "no_wrap" -> st.Ii_search.bounds.Mii.no_wrap
          | _ -> st.Ii_search.bounds.Mii.final
        in
        Alcotest.(check int) "binding component equals final bound" lb
          (component binding);
        (* The search story: every committed attempt with its arm; the
           achieved II must come from a feasible attempt. *)
        let attempts = get_arr doc [ "search"; "attempt_log" ] in
        Alcotest.(check int) "attempt count matches"
          st.Ii_search.attempts (List.length attempts);
        let feasible_iis =
          List.filter_map
            (fun a ->
              match (J.member "feasible" a, J.member "ii" a) with
              | Some (J.Bool true), Some (J.Int ii) -> Some ii
              | _ -> None)
            attempts
        in
        Alcotest.(check bool) "achieved II was a feasible attempt" true
          (List.mem achieved feasible_iis);
        let arms =
          List.filter_map
            (fun a ->
              match (J.member "feasible" a, J.member "arm" a) with
              | Some (J.Bool true), Some (J.Str arm) -> Some arm
              | _ -> None)
            attempts
        in
        Alcotest.(check bool) "a winning arm is attributed" true
          (List.exists (fun a -> a <> "none") arms);
        (* The work story: stage spends in pipeline order, summing to
           the root ledger total. *)
        let stages = get_arr doc [ "stages" ] in
        Alcotest.(check (list string))
          "stages in pipeline order"
          [ "profile"; "select"; "search"; "layout" ]
          (List.map
             (fun s ->
               match J.member "stage" s with
               | Some (J.Str n) -> n
               | _ -> "?")
             stages);
        let works =
          List.map
            (fun s ->
              match J.member "work" s with Some (J.Int w) -> w | _ -> -1)
            stages
        in
        Alcotest.(check bool) "every stage charged >= 0" true
          (List.for_all (fun w -> w >= 0) works);
        Alcotest.(check int) "stage work sums to ledger total"
          (get_int doc [ "ledger_total" ])
          (List.fold_left ( + ) 0 works);
        Alcotest.(check int) "prov agrees with report"
          c.Compile.prov.Compile.ledger_total
          (get_int doc [ "ledger_total" ]);
        (* The rung story: an unbudgeted compile completes. *)
        Alcotest.(check string) "rationale" "completed"
          (get_str doc [ "rationale" ]);
        (* The sweep story: the full scoreboard, with the winner's
           normalised II among the feasible candidates. *)
        let scoreboard = get_arr doc [ "selection"; "scoreboard" ] in
        Alcotest.(check bool) "scoreboard is populated" true
          (scoreboard <> []);
        let feas_norms =
          List.filter_map
            (fun cand ->
              match J.member "norm_ii" cand with
              | Some (J.Float v) -> Some v
              | _ -> None)
            scoreboard
        in
        Alcotest.(check bool) "some candidate was feasible" true
          (feas_norms <> []);
        let winner = c.Compile.config.Select.norm_ii in
        Alcotest.(check bool) "winner is the best feasible candidate" true
          (List.for_all (fun v -> v >= winner) feas_norms
          && List.mem winner feas_norms));
    t "report serialization: serial == --jobs 4, byte-identical" (fun () ->
        let render () =
          let c = compile_bench "DES" in
          ( Report.to_json (Report.assemble ~program:"DES" c),
            Report.schedule_signature c )
        in
        let s_json, s_sig = with_jobs 1 render in
        let p_json, p_sig = with_jobs 4 render in
        Alcotest.(check string) "signature identical" s_sig p_sig;
        Alcotest.(check string) "report JSON byte-identical" s_json p_json);
    t "timings are opt-in and excluded by default" (fun () ->
        let c = compile_bench "Bitonic" in
        let r = Report.assemble c in
        let plain = Report.to_json r in
        let timed = Report.to_json ~timings:true r in
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i =
            i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "no wall_s in default form" false
          (contains plain "wall_s");
        Alcotest.(check bool) "wall_s in timed form" true
          (contains timed "wall_s");
        Alcotest.(check bool) "total_wall_s in timed form" true
          (contains timed "total_wall_s"));
    t "degraded compile reports the rung rationale and seed II" (fun () ->
        (* 25 work units are not enough for BitonicRec's search: the
           fallback scheduler takes over and the report must say why. *)
        let c = compile_bench ~budget:25 "BitonicRec" in
        Alcotest.(check string) "quality rung" "degraded"
          (Compile.quality_name c.Compile.quality);
        let doc = Report.to_doc (Report.assemble ~program:"BitonicRec" c) in
        Alcotest.(check string) "quality in report" "degraded"
          (get_str doc [ "quality" ]);
        let rationale = get_str doc [ "rationale" ] in
        Alcotest.(check bool)
          ("degradation rationale attributed: " ^ rationale)
          true
          (rationale <> "completed");
        (match c.Compile.prov.Compile.fallback_seed_ii with
        | Some seed ->
          Alcotest.(check int) "seed II surfaced" seed
            (get_int doc [ "fallback_seed_ii" ])
        | None ->
          Alcotest.(check bool) "fallback_seed_ii is null" true
            (J.path [ "fallback_seed_ii" ] doc = Some J.Null));
        (* pp_human renders every rung without raising. *)
        ignore
          (Format.asprintf "%a" Report.pp_human
             (Report.assemble ~program:"BitonicRec" c)));
  ]

(* ---- structured event log ------------------------------------------- *)

let log_tests =
  [
    t "compile emits the flight-recorder event stream" (fun () ->
        Obs.Log.reset ();
        Obs.Log.enable ();
        Fun.protect ~finally:Obs.Log.disable (fun () ->
            ignore (compile_bench "FMRadio"));
        let events = Obs.Log.events () in
        List.iter
          (fun name ->
            Alcotest.(check bool) (name ^ " event present") true
              (List.exists (fun (e : Obs.Log.event) -> e.Obs.Log.name = name)
                 events))
          [
            "ii_search.bounds"; "ii_search.commit"; "ii_search.done";
            "select.config"; "compile.finish";
          ];
        (* seq numbers must be strictly increasing after the merge *)
        let seqs = List.map (fun (e : Obs.Log.event) -> e.Obs.Log.seq) events in
        Alcotest.(check bool) "merged stream ordered by seq" true
          (List.sort compare seqs = seqs);
        let jsonl = Obs.Log.to_json_lines ~timestamps:false () in
        Alcotest.(check bool) "jsonl: one line per event" true
          (String.split_on_char '\n' (String.trim jsonl)
           |> List.length = List.length events));
    t "event log is deterministic without timestamps" (fun () ->
        let capture jobs =
          with_jobs jobs (fun () ->
              Obs.Log.reset ();
              Obs.Log.enable ();
              Fun.protect ~finally:Obs.Log.disable (fun () ->
                  ignore (compile_bench "Bitonic"));
              Obs.Log.to_json_lines ~timestamps:false ())
        in
        let serial = capture 1 in
        let par = capture 4 in
        Alcotest.(check string) "jobs 4 == serial" serial par;
        Obs.Log.reset ());
    t "disabled log records nothing" (fun () ->
        Obs.Log.reset ();
        Obs.Log.event "should.not.appear";
        Alcotest.(check int) "no events" 0 (List.length (Obs.Log.events ())));
  ]

(* ---- provenance header in generated CUDA ---------------------------- *)

let header_tests =
  [
    t "CUDA artifact carries its provenance header" (fun () ->
        let c = compile_bench "Bitonic" in
        let cuda = Kir.Backend.emit_compiled Kir.Ir.Cuda c in
        let sig_ = Report.schedule_signature c in
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i =
            i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "header block first" true
          (String.length cuda > 2 && String.sub cuda 0 2 = "/*");
        Alcotest.(check bool) "signature embedded" true (contains cuda sig_);
        Alcotest.(check bool) "quality embedded" true
          (contains cuda
             ("quality: " ^ Compile.quality_name c.Compile.quality)));
  ]

let suite = report_tests @ log_tests @ header_tests
