let res_mii (cfg : Select.config) ~num_sms =
  let total = ref 0 in
  Array.iteri (fun v k -> total := !total + (k * cfg.Select.delay.(v))) cfg.Select.reps;
  Numeric.Intmath.cdiv !total num_sms

(* k-cardinality sharpening of ResMII.  Consider only the (k*m + 1)
   largest instance delays (m = num_sms): by pigeonhole some SM hosts at
   least k+1 of them, and that SM's load — a lower bound on the II by
   constraint (2) — is at least the sum of the k+1 smallest delays in
   that set.  Maximizing over k dominates the plain average bound on
   skewed delay distributions (a handful of heavyweight filters among
   many light ones), which is exactly where the heuristic-vs-bound gap
   was widest. *)
let res_mii_sharp (cfg : Select.config) ~num_sms =
  let base = res_mii cfg ~num_sms in
  let n = Instances.num_instances cfg in
  if n = 0 || num_sms < 1 then base
  else begin
    let ds = Array.make n 0 in
    let j = ref 0 in
    Array.iteri
      (fun v reps ->
        for _ = 1 to reps do
          ds.(!j) <- cfg.Select.delay.(v);
          incr j
        done)
      cfg.Select.reps;
    Array.sort (fun a b -> compare b a) ds;
    let best = ref base in
    let k = ref 1 in
    while (!k * num_sms) + 1 <= n do
      let s = ref 0 in
      for i = (!k * num_sms) - !k to !k * num_sms do
        s := !s + ds.(i)
      done;
      if !s > !best then best := !s;
      incr k
    done;
    !best
  end

(* Longest-path feasibility of the difference system at a candidate T:
   edge weight d_src + T*jlag; infeasible iff a positive cycle exists.
   Takes the dependence endpoints pre-resolved to dense indices so the
   binary search in [rec_mii] does the resolution once, not per probe. *)
let feasible_at cfg iedges t =
  let n = Instances.num_instances cfg in
  let dist = Array.make n 0 in
  let edges =
    List.map (fun (s, d, dsrc, jlag) -> (s, d, dsrc + (t * jlag))) iedges
  in
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters <= n do
    changed := false;
    incr iters;
    List.iter
      (fun (s, d, w) ->
        if dist.(s) + w > dist.(d) then begin
          dist.(d) <- dist.(s) + w;
          changed := true
        end)
      edges
  done;
  not !changed

exception Unschedulable of string

let rec_mii ?deps g cfg =
  let deps = match deps with Some l -> l | None -> Instances.deps g cfg in
  let iedges =
    List.map
      (fun (d : Instances.dep) ->
        (Instances.index cfg d.src, Instances.index cfg d.dst, d.d_src, d.jlag))
      deps
  in
  (* Cycles require a loop-carried (jlag < 0) dependence; without one the
     dependence DAG is acyclic and RecMII is 0. *)
  if feasible_at cfg iedges 0 then 0
  else begin
    (* Feasibility is monotone in T: a cycle of weight sum(d) + T*sum(jlag)
       stays positive forever when sum(jlag) >= 0 and clears once
       T >= sum(d)/|sum(jlag)| otherwise.  So a satisfiable system needs at
       most T = sum of all positive delays (every cycle's delay sum divided
       by |sum(jlag)| >= 1 is below that).  Probe the cap before searching:
       a cycle whose jlag terms cancel — a feedback loop whose initial
       tokens cannot cover one blocked iteration — is infeasible at every
       T, and an unbounded doubling search would never terminate on it. *)
    let t_cap =
      List.fold_left (fun acc (_, _, d, _) -> acc + max 0 d) 1 iedges
    in
    if not (feasible_at cfg iedges t_cap) then
      raise
        (Unschedulable
           "dependence cycle with no loop-carried slack: a feedback loop's \
            initial tokens cannot cover one blocked iteration at the \
            selected scaling");
    let lo = ref 0 and hi = ref t_cap in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if feasible_at cfg iedges mid then hi := mid else lo := mid
    done;
    !hi
  end

type level = Classic | Sharp

(* Constraint (4) — no wrap-around — needs T > d(v) for every scheduled
   node, on top of the resource and recurrence bounds. *)
let no_wrap_bound (cfg : Select.config) =
  let max_delay =
    Array.fold_left
      (fun acc d -> max acc d)
      0
      (Array.mapi
         (fun v d -> if cfg.Select.reps.(v) > 0 then d else 0)
         cfg.Select.delay)
  in
  max_delay + 1

let lower_bound ?deps ?(level = Sharp) g cfg ~num_sms =
  let res =
    match level with
    | Classic -> res_mii cfg ~num_sms
    | Sharp -> res_mii_sharp cfg ~num_sms
  in
  max (no_wrap_bound cfg) (max 1 (max res (rec_mii ?deps g cfg)))

(* --- Bound breakdown (provenance) ------------------------------------- *)

type bounds = {
  res_classic : int;
  res_sharp : int;
  recurrence : int;
  no_wrap : int;
  combinatorial : int;
  final : int;
  binding : string;
}

let binding_name b =
  if b.recurrence = b.final then "rec_mii"
  else if b.res_classic = b.final then "res_mii"
  else if b.res_sharp = b.final then "res_mii_sharp"
  else if b.no_wrap = b.final then "no_wrap"
  else "floor"

let unknown_bounds =
  {
    res_classic = 0;
    res_sharp = 0;
    recurrence = 0;
    no_wrap = 0;
    combinatorial = 0;
    final = 0;
    binding = "unknown";
  }

let bounds ?deps g cfg ~num_sms =
  let res_classic = res_mii cfg ~num_sms in
  let res_sharp = res_mii_sharp cfg ~num_sms in
  let recurrence = rec_mii ?deps g cfg in
  let no_wrap = no_wrap_bound cfg in
  let combinatorial = max no_wrap (max 1 (max res_sharp recurrence)) in
  let b =
    {
      res_classic;
      res_sharp;
      recurrence;
      no_wrap;
      combinatorial;
      final = combinatorial;
      binding = "";
    }
  in
  { b with binding = binding_name b }
