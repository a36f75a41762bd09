(* Order statistics for the benchmark's timings.

   Percentiles use the nearest-rank definition on the sorted samples, so
   every reported value is a sample that was actually measured.  A tail
   percentile is only meaningful when enough samples lie beyond it:
   [tail] picks the highest percentile of a fixed ladder that still has
   at least [min_beyond] samples above its rank, and always reports the
   sample count next to it. *)

let ladder = [ 50.0; 75.0; 90.0; 95.0; 99.0; 99.9 ]
let min_beyond = 10

(* 1-based nearest rank of percentile [p] among [n] samples.  The
   product is rounded to 1e-9 first so that e.g. 0.9 *. 1000 (which is
   900.0000000000001 in binary) ranks 900, not 901. *)
let rank n p =
  let x = p /. 100.0 *. float_of_int n in
  let x = Float.round (x *. 1e9) /. 1e9 in
  max 1 (min n (int_of_float (Float.ceil x)))

let beyond n p = n - rank n p

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  (sorted xs).(rank n p - 1)

(* Samples needed before percentile [p] has [min_beyond] samples above
   its rank. *)
let samples_for p =
  let rec go n = if beyond n p >= min_beyond then n else go (n + 1) in
  go 1

type tail = { pct : float; value : float; n : int }

let tail xs =
  let n = Array.length xs in
  match List.filter (fun p -> beyond n p >= min_beyond) ladder with
  | [] -> None
  | ps ->
    let pct = List.fold_left Float.max 0.0 ps in
    Some { pct; value = percentile xs pct; n }

let median xs = percentile xs 50.0

(* The samples ranked above percentile [lo] and up to percentile [hi],
   in ascending order; at least the one at [hi]. *)
let between xs lo hi =
  let n = Array.length xs in
  let a = sorted xs and r0 = rank n lo and r1 = rank n hi in
  let r0 = min r0 (r1 - 1) in
  Array.to_list (Array.sub a r0 (r1 - r0))

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let sum xs = Array.fold_left ( +. ) 0.0 xs

let geomean = function
  | [] -> 0.0
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let pct_name p =
  if Float.is_integer p then Printf.sprintf "p%d" (int_of_float p)
  else
    (* 99.9 -> p999 *)
    "p" ^ String.concat "" (String.split_on_char '.' (Printf.sprintf "%g" p))

(* Metric names are [A-Za-z0-9_.-]+, the charset the result format
   allows. *)
let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s
