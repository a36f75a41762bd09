(* One benchmark run: set up and time a workload, check its outputs,
   print its metrics and return the exit code. *)

let run ~workload ~run ~seed ~seconds ~trace =
  let per_span = if trace then Span.calibrate () else 0.0 in
  Layers.reset ();
  Span.enabled := trace;
  let t0 = Resil.Clock.now () in
  let (o : Report.outcome) = run ~seed ~seconds:(float_of_int seconds) ~trace in
  let run_s = Resil.Clock.now () -. t0 in
  Span.enabled := false;
  let correct = o.Report.failed = 0 in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d\n" workload seed
    seconds (if trace then 1 else 0);
  List.iter (Report.print_named stdout)
    (Report.named ~samples:(Array.length o.Report.setup_s) "setup_s" "s"
       (Stats.median o.Report.setup_s)
    :: Report.named ~samples:(Array.length o.Report.ref_ms) "ref_ms.p50" "ms"
         (Stats.median o.Report.ref_ms)
    :: o.Report.named
    @ [
        Report.named ~samples:o.Report.attempted "error_rate" "ratio"
          (float_of_int o.Report.failed
          /. float_of_int (max 1 o.Report.attempted));
        Report.named "top_heap_mb" "MB" (Report.top_heap_mb ());
      ]);
  List.iteri
    (fun i m -> if i < 5 then prerr_endline ("perfbench: check failed: " ^ m))
    o.Report.errors;
  let metrics =
    if trace then begin
      let layers =
        Layers.finalize ~ops:(Array.length o.Report.ops_ms)
          ~ops_ms:o.Report.ops_ms ~run_s ~per_span
      in
      print_endline "per-layer (traced run):";
      List.iter
        (fun ((x : Layers.metric), v) ->
          Printf.printf "  %-30s %16.6f %-8s moves: %s\n" x.Layers.name v
            x.Layers.unit x.Layers.moves)
        layers;
      let path =
        Printf.sprintf "%s/spans-%s-%d.json" (Report.out_dir ()) workload seed
      in
      Span.write path;
      Printf.printf "spans written to %s\n" path;
      List.map
        (fun ((x : Layers.metric), v) -> (x.Layers.name, x.Layers.unit, v))
        layers
    end
    else Report.end_to_end o
  in
  print_endline
    (Obs.Report.to_string
       (Obs.Report.Obj
          [
            ( "envelope",
              Envelope.to_json ~workload ~seed ~seconds ~trace
                ~samples:
                  [
                    ("setup", Array.length o.Report.setup_s);
                    ("ops", Array.length o.Report.ops_ms);
                  ] );
          ]));
  print_endline
    (Report.result_line ~correct ~attempted:o.Report.attempted
       ~failed:o.Report.failed metrics);
  if correct then 0 else 1
