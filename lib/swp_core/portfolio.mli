(** Portfolio of schedulers raced per candidate II.

    Each candidate II races the three {!Heuristic.strategy} packings
    ({e arms}) in a fixed order, and the first feasible arm wins.
    Different packings fail at different IIs, so the race lowers the
    achieved II at near-zero cost; the fixed order and work-unit
    accounting keep every probe a pure function of its candidate II,
    preserving the commit-prefix discipline that makes serial and
    [--jobs N] searches byte-identical.

    The exact ILP is not an arm: it is reachable only through the
    explicit {!Ii_search.Exact} solver, and serves as the test oracle
    the packings are measured against.

    Budgets: [tok] (the per-attempt allotment) is consulted before each
    arm and charged one work unit per arm through a per-arm
    {!Resil.Budget.sub} token, so a tight per-attempt budget cuts the
    race short at a deterministic point.

    Metrics ([portfolio.arm_won{arm}], [portfolio.no_arm_won],
    [portfolio.lns_improved], [portfolio.lns_improvement_pct]) are
    recorded only from {!record_arm}/{!record_lns}, which the II search
    calls at commit points — speculative probes never touch them. *)

type outcome = {
  schedule : Swp_schedule.t option;  (** the winning arm's schedule *)
  arm : string;
      (** winning arm: ["ffd"] | ["bfd"] | ["bal"], or ["none"] when
          every arm failed *)
  arms_run : int;       (** arms actually raced (the work-unit charge) *)
}

val try_ii :
  ?tok:Resil.Budget.t ->
  insts:Instances.instance list ->
  deps:Instances.dep list ->
  Streamit.Graph.t ->
  Select.config ->
  num_sms:int ->
  ii:int ->
  outcome
(** Race the arms at one candidate II. *)

val record_arm : string -> feasible:bool -> unit
(** Record a committed attempt's arm outcome (win counter per arm —
    ["exact"] for the {!Ii_search.Exact} solver — and a loss counter for
    ["none"]).  Call only at commit points. *)

val record_lns : from_ii:int -> to_ii:int -> unit
(** Record a committed LNS improvement (counter + magnitude histogram,
    in percent of the pre-refinement II). *)
