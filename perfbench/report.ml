(* What one run of a workload measured, and how it is printed: a
   human-readable block naming every end-to-end metric the workload
   defines (with units and sample counts), the run envelope as one JSON
   line, and, last, the result line
   [{"correct", "attempted", "failed", "metrics"}]. *)

module J = Obs.Report

(* Where a run writes its files (spans, the serve store), created on
   first use; ignored by git. *)
let out_dir () =
  let d = "perfbench/out" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

type named = {
  n_name : string;
  n_value : float;
  n_unit : string;
  n_samples : int option;
}

type outcome = {
  attempted : int;
  failed : int;
  errors : string list;  (** one message per failed operation *)
  setup_s : float array;  (** one per set-up repetition *)
  ops_ms : float array;  (** one latency per operation, timed region only *)
  ref_ms : float array;
      (** per operation, the reference time it is divided by ([Calib]) *)
  tail_pct : float;  (** the workload's designated tail percentile *)
  named : named list;  (** the workload's own metrics, by their names *)
}

let named ?samples name unit value =
  { n_name = name; n_value = value; n_unit = unit; n_samples = samples }

(* The end-to-end metrics every workload reports (BENCHMARK.json
   "end_to_end"); each is a number that is never 0 on a correct run.  An
   operation is a compile job, a serve request or a fuzz seed.  Latency is
   gated in reference units ([Calib]: each operation's wall time over the
   host's time for the reference work around it), as geometric means:
   over all operations, and over the slower half.  Wall-clock latencies
   in ms moved by 1.1x to 1.5x between runs on a shared host; these did
   not.  A geometric mean weighs every operation alike, so the few that
   run into the II search's wall-clock time caps (on sm_sweep and fuzz;
   their time does not scale with the host's speed) or that take seconds
   cannot swamp it, and a change that slows a share of the operations
   by some factor moves it by that factor to the power of the share.
   The workload's latencies in ms (median, tail percentile, rate) are
   printed with its metrics. *)
let op_ref (o : outcome) =
  Array.mapi (fun i ms -> ms /. o.ref_ms.(i)) o.ops_ms

let end_to_end (o : outcome) =
  let r = op_ref o in
  [
    ("setup_s", "s", Stats.median o.setup_s);
    ("op_ref.geomean", "ref", Stats.geomean (Array.to_list r));
    ( "op_ref.upper_half_geomean",
      "ref",
      Stats.geomean (Stats.between r 50.0 100.0) );
  ]

(* Peak major heap of the process so far.  Printed, not gated: it moves
   with where the collector's cycles fall. *)
let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* A workload's timing metrics under its own names (e.g. compile_ms.p50,
   req_ms.p99, req_per_s), for the human block. *)
let timing_block ~prefix ~rate_name ~tail_pct ops_ms =
  let n = Array.length ops_ms in
  let busy_s = Stats.sum ops_ms /. 1000.0 in
  let hi =
    match Stats.tail ops_ms with
    | Some t ->
      [
        named ~samples:t.Stats.n
          (Printf.sprintf "%s_ms.highest_%s" prefix (Stats.pct_name t.Stats.pct))
          "ms" t.Stats.value;
      ]
    | None -> []
  in
  [
    named ~samples:n (prefix ^ "_ms.p50") "ms" (Stats.median ops_ms);
    named ~samples:n
      (Printf.sprintf "%s_ms.%s" prefix (Stats.pct_name tail_pct))
      "ms"
      (Stats.percentile ops_ms tail_pct);
  ]
  @ hi
  @ [ named ~samples:n rate_name "1/s" (float_of_int n /. busy_s) ]

let result_line ~correct ~attempted ~failed metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, unit, v) ->
                  (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
                metrics) );
       ])

let print_named oc (x : named) =
  Printf.fprintf oc "  %-34s %16.6f %-8s%s\n" x.n_name x.n_value x.n_unit
    (match x.n_samples with Some n -> Printf.sprintf " (n=%d)" n | None -> "")

(* Set-up timing.  A workload sets up once before its timed region and
   again, outside it, about every eighth of the run's seconds: the
   host's speed drifts over seconds, and set-ups spread over the run give
   a median that moves no more than the run's own figures.  Each set-up
   starts from a freshly collected heap. *)
type 'a setup = {
  make : unit -> 'a;
  interval : float;
  mutable next : float;
  mutable times : float list;
}

let time_setup s =
  Gc.full_major ();
  let t0 = Resil.Clock.now () in
  let x = s.make () in
  let t1 = Resil.Clock.now () in
  s.times <- (t1 -. t0) :: s.times;
  s.next <- t1 +. s.interval;
  x

(* The first set-up: its result is what the run uses. *)
let start_setup ~seconds make =
  let s = { make; interval = seconds /. 8.0; next = 0.0; times = [] } in
  (s, time_setup s)

(* Called between operations: set up again (result dropped) when due. *)
let tick_setup s = if Resil.Clock.now () >= s.next then ignore (time_setup s)

let setup_times s = Array.of_list (List.rev s.times)
