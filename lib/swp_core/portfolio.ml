(* Per-candidate-II portfolio: the heuristic packing strategies raced
   as budgeted arms.  The racing order is fixed — ffd, bfd, bal — and
   the first feasible arm wins, so the outcome is a pure function of the
   candidate II and the arms' work caps: speculative parallel probing
   commits exactly what the serial race would have. *)

type outcome = {
  schedule : Swp_schedule.t option;
  arm : string;
  arms_run : int;
}

let arm_names = [ "ffd"; "bfd"; "bal"; "exact"; "lns" ]

let won =
  List.map
    (fun a -> (a, Obs.Metrics.counter ~labels:[ ("arm", a) ] "portfolio.arm_won"))
    arm_names

let m_lost = Obs.Metrics.counter "portfolio.no_arm_won"
let m_lns_improved = Obs.Metrics.counter "portfolio.lns_improved"
let h_lns_pct = Obs.Metrics.histogram "portfolio.lns_improvement_pct"

(* Called at *commit* time only (ii_search's commit point), never from a
   speculative probe, so metrics reflect the committed search.  "exact"
   wins are those of the explicit [Exact] solver. *)
let record_arm arm ~feasible =
  if feasible then
    match List.assoc_opt arm won with
    | Some c -> Obs.Metrics.inc c
    | None -> ()
  else if arm = "none" then Obs.Metrics.inc m_lost

let record_lns ~from_ii ~to_ii =
  Obs.Metrics.inc m_lns_improved;
  (match List.assoc_opt "lns" won with
  | Some c -> Obs.Metrics.inc c
  | None -> ());
  Obs.Metrics.observe h_lns_pct
    (100.0
    *. float_of_int (from_ii - to_ii)
    /. float_of_int (max 1 from_ii))

let try_ii ?tok ~insts ~deps g cfg ~num_sms ~ii =
  let arms_run = ref 0 in
  let over () =
    match tok with Some t -> Resil.Budget.over_work t | None -> false
  in
  (* One work unit per arm, charged through a per-arm sub-token so a
     tight per-attempt allotment cuts the race short deterministically. *)
  let rec heur = function
    | [] -> None
    | s :: tl ->
      if over () then None
      else begin
        incr arms_run;
        (match tok with
        | Some t ->
          Resil.Budget.charge
            (Resil.Budget.sub ~label:("arm." ^ Heuristic.strategy_name s) t)
            1
        | None -> ());
        match Heuristic.solve ~strategy:s ~insts ~deps g cfg ~num_sms ~ii with
        | `Schedule sched -> Some (sched, Heuristic.strategy_name s)
        | `Infeasible -> heur tl
      end
  in
  match heur Heuristic.all_strategies with
  | Some (s, arm) -> { schedule = Some s; arm; arms_run = !arms_run }
  | None -> { schedule = None; arm = "none"; arms_run = !arms_run }
