(* Tests of the benchmark itself: its percentile helper, its metric
   names, and that its traced decompositions compute what the program's
   own entry points compute. *)

open Perfbench

let float_eq = Alcotest.float 0.0

let test_tail () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  let tail n = Option.get (Stats.tail (xs n)) in
  Alcotest.(check (option reject)) "too few samples" None
    (Option.map ignore (Stats.tail (xs 10)));
  List.iter
    (fun (n, pct) ->
      let t = tail n in
      Alcotest.(check float_eq) (Printf.sprintf "pct for n=%d" n) pct t.Stats.pct;
      Alcotest.(check int) "n reported" n t.Stats.n;
      Alcotest.(check bool) "at least 10 beyond" true
        (Stats.beyond n t.Stats.pct >= Stats.min_beyond);
      (* samples are 1..n, so the nearest-rank value is the rank *)
      Alcotest.(check float_eq)
        "value" (float_of_int (Stats.rank n pct)) t.Stats.value)
    [ (20, 50.0); (40, 75.0); (99, 75.0); (100, 90.0); (199, 90.0); (200, 95.0);
      (999, 95.0); (1000, 99.0); (10_000, 99.9) ];
  Alcotest.(check int) "samples for p90" 100 (Stats.samples_for 90.0);
  Alcotest.(check int) "samples for p99" 1000 (Stats.samples_for 99.0);
  Alcotest.(check float_eq)
    "median" 3.0
    (Stats.median [| 5.0; 1.0; 3.0; 2.0; 4.0 |]);
  let eight = [| 8.0; 1.0; 7.0; 2.0; 6.0; 3.0; 5.0; 4.0 |] in
  Alcotest.(check (list float_eq)) "middle half" [ 3.0; 4.0; 5.0; 6.0 ]
    (Stats.between eight 25.0 75.0);
  Alcotest.(check (list float_eq)) "slower half" [ 5.0; 6.0; 7.0; 8.0 ]
    (Stats.between eight 50.0 100.0);
  Alcotest.(check float_eq) "geomean" 4.0 (Stats.geomean [ 2.0; 8.0 ])

let benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Cache.Protocol.parse s

let names key doc =
  match Obs.Report.member key doc with
  | Some (Obs.Report.Arr xs) ->
    List.map
      (fun x ->
        match Obs.Report.member "name" x with
        | Some (Obs.Report.Str n) -> n
        | _ -> Alcotest.fail "entry without a name")
      xs
  | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)

let test_names () =
  let outcome =
    {
      Report.attempted = 1;
      failed = 0;
      errors = [];
      setup_s = [| 1.0 |];
      ops_ms = [| 1.0 |];
      ref_ms = [| 1.0 |];
      tail_pct = 90.0;
      named = [];
    }
  in
  let e2e = List.map (fun (n, _, _) -> n) (Report.end_to_end outcome) in
  let layers = List.map (fun (m : Layers.metric) -> m.Layers.name) Layers.all in
  List.iter
    (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (Stats.valid_name n))
    (e2e @ layers);
  Alcotest.(check bool) "invalid name rejected" false (Stats.valid_name "a b");
  let unique l = List.length (List.sort_uniq compare l) = List.length l in
  Alcotest.(check bool) "unique names" true (unique (e2e @ layers));
  let doc = benchmark_json () in
  Alcotest.(check (list string)) "end_to_end = BENCHMARK.json" e2e
    (names "end_to_end" doc);
  Alcotest.(check (list string)) "per_layer = BENCHMARK.json" layers
    (names "per_layer" doc)

let test_staged_matches_compile () =
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let g = Streamit.Flatten.flatten (e.Benchmarks.Registry.stream ()) in
      let cuda c = Kir.Backend.emit Kir.Ir.Cuda (Kir.Lower.lower c) in
      match (Swp_core.Compile.compile g, Staged.compile g) with
      | Ok c, Ok s ->
        Alcotest.(check string)
          (e.Benchmarks.Registry.name ^ " log signature")
          (Swp_core.Ii_search.log_signature c.Swp_core.Compile.search_stats)
          (Swp_core.Ii_search.log_signature s.Swp_core.Compile.search_stats);
        Alcotest.(check bool)
          (e.Benchmarks.Registry.name ^ " kernel bytes")
          true
          (cuda c = cuda s)
      | _ -> Alcotest.fail (e.Benchmarks.Registry.name ^ ": compile failed"))
    Benchmarks.Registry.all

let outcome_string = function
  | Fuzz_wl.Pass -> "pass"
  | Fuzz_wl.Skip r -> "skip: " ^ r
  | Fuzz_wl.Fail m -> "fail: " ^ m

let test_traced_fuzz_matches_check_stream () =
  List.iter
    (fun seed ->
      let input = Check.Gen.input ~seed in
      let s = Check.Gen.stream ~seed () in
      let expected =
        match Check.Fuzz.check_stream ~input s with
        | Ok Check.Fuzz.Pass -> Fuzz_wl.Pass
        | Ok (Check.Fuzz.Skip r) -> Fuzz_wl.Skip r
        | Ok (Check.Fuzz.Fail m) | Error m -> Fuzz_wl.Fail m
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d" seed)
        (outcome_string expected)
        (outcome_string (Fuzz_wl.traced_check ~input s)))
    (List.init 15 (fun i -> 101 + i))

let test_skip_buckets () =
  List.iter
    (fun (reason, bucket) ->
      Alcotest.(check string) reason bucket (Fuzz_wl.skip_bucket reason))
    [
      ( "compile: II search failed (unschedulable): dependence cycle with no \
         loop-carried slack: a feedback loop's initial tokens cannot cover one \
         blocked iteration at the selected scaling",
        "check.skip.feedback" );
      ( "steady state too large to schedule within the fuzz budget",
        "check.skip.steady_state" );
      ( "steady state too large for the simulation budget",
        "check.skip.sim_budget" );
      ("compile: no feasible configuration", "check.skip.other");
    ]

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "tail percentile picks >= 10 beyond" `Quick
            test_tail;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "staged pipeline = Compile.compile" `Quick
            test_staged_matches_compile;
          Alcotest.test_case "traced fuzz = check_stream" `Quick
            test_traced_fuzz_matches_check_stream;
          Alcotest.test_case "skip buckets" `Quick test_skip_buckets;
        ] );
    ]
