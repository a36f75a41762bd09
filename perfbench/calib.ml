(* The host's speed, measured next to the operations.

   The benchmark runs on a shared host whose CPU speed swings by up to
   about 1.5x over seconds to minutes (frequency, and neighbours on the
   same cores), far more than the bounds a change is judged by.  So the
   gated latencies are reported in reference units: each operation's
   wall time divided by the time of a fixed piece of benchmark-owned
   work, run in the same process shortly before it.  The reference work
   never calls into the compiler and never allocates, so neither a
   change to the program nor the size of the program's heap (through
   the collector) moves its time; only the host's speed does.

   The reference work takes about 2 ms and is timed again only when
   [interval] seconds have passed since the last timing (and around
   longer operations, see [finish]); an operation is divided by the
   median of the timings close to it, which smooths over the odd
   interrupted one. *)

(* 512 KiB of ints, larger than a core's L2: xorshift fill, then
   hashed read-modify-write passes.  Integer arithmetic and array
   stores of immediates only, so nothing is allocated. *)
let buf = Array.make 65536 0

let work () =
  let x = ref 0x2545F491 in
  let n = Array.length buf in
  for i = 0 to n - 1 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    buf.(i) <- !x land 0xffffff
  done;
  let acc = ref 0 in
  for _ = 1 to 10 do
    for i = 0 to n - 1 do
      let j = buf.(i) * 2654435761 land (n - 1) in
      acc := !acc + buf.(j);
      buf.(j) <- buf.(j) lxor i
    done
  done;
  !acc

(* Keeps [work]'s result live. *)
let sink = ref 0

let time_work () =
  let t0 = Resil.Clock.now () in
  sink := !sink + work ();
  (Resil.Clock.now () -. t0) *. 1000.0

let interval = 0.02
let span = 0.1

(* Timings, newest first, with the time each was taken. *)
type t = { mutable samples : (float * float) list }

let measure t =
  let ms = time_work () in
  t.samples <-
    (Resil.Clock.now (), ms) :: List.filteri (fun i _ -> i < 63) t.samples

let last t = match t.samples with (at, _) :: _ -> at | [] -> neg_infinity

(* A few timings up front, so the first operation has a full window. *)
let create () =
  let t = { samples = [] } in
  for _ = 1 to 5 do
    measure t
  done;
  t

(* Call just before timing an operation. *)
let start t = if Resil.Clock.now () -. last t >= interval then measure t

(* Call just after timing an operation that took [op_s] seconds: the
   reference time, in ms, to divide it by.  An operation longer than
   [interval] is bracketed, two timings after it joining those before
   it; the reference is the median of the timings from [span] seconds
   before the operation to its end. *)
let finish t ~op_s =
  if op_s >= interval then begin
    measure t;
    measure t
  end;
  let from = Resil.Clock.now () -. op_s -. span in
  Stats.median
    (Array.of_list
       (List.filter_map
          (fun (at, ms) -> if at >= from then Some ms else None)
          t.samples))
