(* The per-layer metrics of the traced run.  Each one names the
   end-to-end metric it should move and the workload where that shows;
   the traced report prints the prediction next to the measured value.
   A layer the workload does not exercise reports 0.

   Units: [ms] is mean self time per operation of the workload (compile
   job, serve request or fuzz seed), except for the spans in [per_call]
   below, which report the mean per call, and the [cache.get.<outcome>]
   spans, which report their mean total time (children included) per
   request with that outcome; [count/op] and [bytes/op] are
   means per operation; [count] is a total over the run, used as the
   base of a ratio. *)

type metric = {
  name : string;
  unit : string;
  better : [ `Higher | `Lower ];
  moves : string;  (** end-to-end metric and workload it should move *)
}

let m ?(better = `Lower) name unit moves = { name; unit; better; moves }

let compile_p50 = "compile_ms.p50 on cold16; req_ms.p99 on serve_mix"
let search = "compile_ms.p90, compiles_per_s on sm_sweep; not cold16/serve_mix"
let serve_hit = "req_ms.p50, req_per_s on serve_mix (hit path); no other"
let serve_miss = "req_ms.p99 on serve_mix (miss path); no other"
let fuzz = "fuzz_seeds_per_s, fuzz_checked_per_s on fuzz"
let skips = "accept_rate on fuzz (the skip-reason baseline)"
let executed = "speedup_geomean on cold16/sm_sweep (executed vs scheduled II)"
let printer = "req_ms.p99 on serve_mix (misses of that target); fuzz"
let frontend = "req_ms.p50 on serve_mix"
let overhead = "none: tracing overhead against the untraced run"

let all =
  [
    m "profile.ms" "ms" compile_p50;
    m "profile.cells" "count/op" compile_p50;
    m ~better:`Higher "profile.memo_hit_ratio" "ratio" compile_p50;
    m ~better:`Higher "profile.memo_lookups" "count" "base of memo_hit_ratio";
    m "select.ms" "ms" "speedup_geomean on cold16/sm_sweep";
    m "select.work" "count/op" "speedup_geomean; accept_rate on fuzz";
    m "ii_search.ms" "ms" search;
    m "ii_search.attempts" "count/op" search;
    m "ii_search.work_units" "count/op" search;
    m "ii_search.exact.ms" "ms" search;
    m "ii_search.exact.tries" "count/op" search;
    m ~better:`Higher "ii_search.exact.win_ratio" "ratio" search;
    m ~better:`Higher "ii_search.arm_won.ffd" "count/op" search;
    m ~better:`Higher "ii_search.arm_won.bfd" "count/op" search;
    m ~better:`Higher "ii_search.arm_won.bal" "count/op" search;
    m ~better:`Higher "ii_search.arm_won.exact" "count/op" search;
    m ~better:`Higher "ii_search.arm_won.lns" "count/op" search;
    m "ii_search.gap_pct" "%" "speedup_geomean on sm_sweep";
    m "lp.pivots" "count/op" search;
    m "lp.bb_nodes" "count/op" search;
    m "layout.ms" "ms" compile_p50;
    m "layout.bytes" "bytes/op" "buffer_mb on cold16/sm_sweep";
    m "kir.lower.ms" "ms" (compile_p50 ^ "; " ^ fuzz);
    m "kir.print.cuda.ms" "ms" (compile_p50 ^ "; " ^ fuzz);
    m "kir.print.wgsl.ms" "ms" printer;
    m "kir.print.opencl.ms" "ms" printer;
    m "kir.print.metal.ms" "ms" printer;
    m "kir.lint.ms" "ms" "none on cold16/sm_sweep (output check)";
    m "kir.lines" "count/op" compile_p50;
    m "executor.ms" "ms" executed;
    m "executor.exec_over_sched_ii" "ratio" executed;
    m "executor.bus_bound" "ratio" executed;
    m "frontend.parse.ms" "ms" frontend;
    m "streamit.flatten.ms" "ms" frontend;
    m "streamit.sdf.ms" "ms" frontend;
    m "cache.protocol.ms" "ms" serve_hit;
    m "cache.guard.ms" "ms" serve_hit;
    m "cache.key.ms" "ms" serve_hit;
    m "cache.store.find.ms" "ms" serve_hit;
    m "cache.store.put.ms" "ms" serve_miss;
    m "cache.get.hit.ms" "ms" serve_hit;
    m "cache.get.incremental.ms" "ms" serve_miss;
    m "cache.get.miss.ms" "ms" serve_miss;
    m ~better:`Higher "cache.hit_ratio" "ratio" serve_hit;
    m ~better:`Higher "cache.incremental_ratio" "ratio" serve_miss;
    m ~better:`Higher "cache.mem_hit_ratio" "ratio" serve_hit;
    m ~better:`Higher "cache.requests" "count" "base of the cache ratios";
    m ~better:`Higher "cache.store_hits" "count" "base of mem_hit_ratio";
    m "cache.guard.shed" "count/op" serve_hit;
    m "check.compile.ms" "ms" fuzz;
    m "check.invariants.ms" "ms" fuzz;
    m "check.interp.ms" "ms" fuzz;
    m "check.funcsim.ms" "ms" fuzz;
    m "check.replay.ms" "ms" fuzz;
    m "check.kir_eval.ms" "ms" fuzz;
    m "check.lint.ms" "ms" fuzz;
    m "check.skip.feedback" "ratio" skips;
    m "check.skip.steady_state" "ratio" skips;
    m "check.skip.sim_budget" "ratio" skips;
    m "check.skip.other" "ratio" skips;
    m ~better:`Higher "check.seeds" "count" "base of the check.skip ratios";
    m ~better:`Higher "traced.ops_per_s" "1/s" overhead;
    m "traced.op_ms.p50" "ms" overhead;
    m "traced.op_ms.mean" "ms" overhead;
    m "trace.spans" "count" overhead;
    m "trace.overhead_pct" "%" overhead;
  ]

(* Accumulated raw values of one traced run, keyed by metric name. *)
let values : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace values name
    (Option.value (Hashtbl.find_opt values name) ~default:0.0 +. v)

let incr name = add name 1.0
let get name = Option.value (Hashtbl.find_opt values name) ~default:0.0
let set name v = Hashtbl.replace values name v
let reset () = Hashtbl.reset values

(* Spans whose [.ms] metric is the mean per call rather than per
   operation: the store write, and the codegen layer and executor, which
   a fuzz seed reaches only when it compiles and the compile workloads'
   traced run partly exercises once per distinct job. *)
let per_outcome = [ "cache.get.hit"; "cache.get.incremental"; "cache.get.miss" ]

let per_call =
  [
    "cache.store.put";
    "kir.lower";
    "kir.print.cuda";
    "kir.print.wgsl";
    "kir.print.opencl";
    "kir.print.metal";
    "kir.lint";
    "executor";
  ]

let ratio a b = if b > 0.0 then a /. b else 0.0

(* The per-layer metrics of a traced run of [ops] operations that took
   [run_s] seconds, given the measured cost of one span. *)
let finalize ~ops ~ops_ms ~run_s ~per_span =
  let self = Span.self_seconds () in
  let span_ms name =
    Option.value (Hashtbl.find_opt self name) ~default:0.0 *. 1000.0
  in
  let per_op v = ratio v (float_of_int ops) in
  let n_spans = float_of_int (Span.count ()) in
  let value (x : metric) =
    match x.name with
    | "profile.memo_hit_ratio" ->
      ratio (get "profile.memo_hits") (get "profile.memo_lookups")
    | "ii_search.exact.win_ratio" ->
      ratio (get "exact.wins") (get "ii_search.exact.tries")
    | "executor.exec_over_sched_ii" ->
      let n = get "executor.runs" in
      if n > 0.0 then exp (get "executor.log_exec_over_sched" /. n) else 0.0
    | "executor.bus_bound" ->
      ratio (get "executor.bus_bound") (get "executor.runs")
    | "cache.hit_ratio" -> ratio (get "cache.hits") (get "cache.requests")
    | "cache.incremental_ratio" ->
      ratio (get "cache.incrementals") (get "cache.requests")
    | "cache.mem_hit_ratio" ->
      ratio (get "cache.mem_hits") (get "cache.store_hits")
    | "check.skip.feedback" | "check.skip.steady_state" | "check.skip.sim_budget"
    | "check.skip.other" ->
      ratio (get x.name) (get "check.seeds")
    | "traced.ops_per_s" -> ratio (float_of_int ops) (Stats.sum ops_ms /. 1000.0)
    | "traced.op_ms.p50" -> if ops > 0 then Stats.median ops_ms else 0.0
    | "traced.op_ms.mean" -> Stats.mean ops_ms
    | "trace.spans" -> n_spans
    | "ii_search.exact.ms" -> per_op (get x.name)  (* from the attempt log *)
    | "trace.overhead_pct" -> ratio (100.0 *. n_spans *. per_span) run_s
    | name when x.unit = "ms" ->
      let span = Filename.chop_suffix name ".ms" in
      if List.mem span per_outcome then
        ratio (1000.0 *. Span.total_seconds span) (float_of_int (Span.calls span))
      else if List.mem span per_call then
        ratio (span_ms span) (float_of_int (Span.calls span))
      else per_op (span_ms span)
    | name when x.unit = "count" -> get name
    | name -> per_op (get name)
  in
  List.map (fun x -> (x, value x)) all
