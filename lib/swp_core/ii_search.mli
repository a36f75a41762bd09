(** Initiation-interval search loop (Sec. V-B).

    The paper's methodology: start at the lower bound
    [max(ResMII, RecMII)], allot the solver a fixed budget, and on
    failure relax the II by 0.5% (at least 1 cycle) and retry.  We keep
    the same loop.  The production solver at each candidate II is the
    heuristic packing portfolio ({!Portfolio.try_ii}), followed by LNS
    refinement below the first feasible II ({!Lns.refine}); the paper's
    ILP runs only under the explicit [Exact] solver (and as the test
    oracle), where the budget is a branch-and-bound node budget plus the
    paper's 20 s CPU allotment.

    The search derives the instance/dependence expansion {e once} and
    reuses it across every candidate II, and in [Exact] mode warm-starts
    branch-and-bound with the heuristic's feasible schedule so the ILP
    verifies rather than re-discovers it.

    {2 Budgets}

    A {!budget} bounds the search along two axes.  {e Per-attempt}
    limits ([attempt_work], and the paper-mirroring [exact_time_s] CPU
    allotment) bound one candidate II's solve; the
    search then relaxes and retries, so they shape quality, not
    termination.  {e Search-wide} limits ([total_work],
    [wall_clock_s]) stop the whole search with a structured {!error}
    that the compiler turns into a degraded-but-valid schedule.

    Work-unit limits (simplex pivots + branch-and-bound nodes, one unit
    each, plus one per committed attempt) are deterministic: the ledger
    is charged only when an attempt {e commits}, in candidate order, so
    a budgeted parallel search cuts off at exactly the attempt the
    serial search would.  Wall-clock limits are nondeterministic and
    opt-in. *)

type solver =
  | Exact of int
      (** ILP with the given node budget per candidate II, warm-started
          from the heuristic schedule whenever one exists at that II *)
  | Heuristic
      (** the ffd/bfd/bal packing portfolio per candidate II, then LNS
          refinement; the default *)

type budget = {
  attempt_work : int option;
      (** work-unit cap per candidate II's ILP solve (pivots + nodes);
          deterministic *)
  exact_time_s : float option;
      (** CPU-seconds cap per [Exact] ILP solve — the paper's 20 s
          CPLEX allotment *)
  total_work : int option;
      (** work-unit ledger for the whole search; exhaustion stops it
          with reason [`Budget].  Deterministic *)
  wall_clock_s : float option;
      (** wall-clock deadline for the whole search; exceeding it stops
          with reason [`Deadline].  Nondeterministic, opt-in *)
}

val default_budget : budget
(** [{ attempt_work = None; exact_time_s = Some 20.0;
      total_work = None; wall_clock_s = None }]
    — the paper-derived per-attempt CPU allotment of the [Exact] solver,
    and no search-wide limit. *)

type attempt = {
  ii : int;                (** candidate II of this attempt *)
  arm : string;
      (** the arm that produced this attempt's outcome: a portfolio arm
          name (["ffd"] | ["bfd"] | ["bal"]), ["exact"] for the [Exact]
          solver, ["lns"] for a refinement probe, or ["none"] when
          nothing was feasible *)
  tried_exact : bool;
      (** the exact ILP ran (possibly warm-started); only ever [true]
          under the [Exact] solver *)
  feasible : bool;
  solve_time_s : float;    (** CPU seconds spent on this candidate *)
  lp_pivots : int;         (** simplex pivots across the ILP's relaxations *)
  bb_nodes : int;          (** branch-and-bound nodes explored *)
  work_units : int;        (** [lp_pivots + bb_nodes + arms raced] (at
                               least one), the ledger charge *)
  budget_hit : bool;       (** the per-attempt budget cut this solve short
                               (or a fault was injected here) *)
}

type stats = {
  lower_bound : int;       (** the starting II ([= bounds.final]) *)
  bounds : Mii.bounds;     (** full lower-bound breakdown: which of
                               RecMII / ResMII / sharp was binding *)
  achieved_ii : int;
  attempts : int;          (** candidate IIs tried *)
  relaxation : float;      (** (achieved - bound) / bound *)
  used_exact : bool;       (** whether the returned schedule came from the ILP *)
  refined : bool;          (** LNS refinement improved the schedule below
                               the first feasible candidate *)
  attempt_log : attempt list;
      (** one entry per candidate II, in search order (the last entry is
          the successful one when the search succeeds) *)
}

type reason = [ `Unschedulable | `Budget | `Deadline | `Range ]
(** Why a search stopped without a schedule: structurally unschedulable
    at any II; the [total_work] ledger ran dry; the [wall_clock_s]
    deadline passed; or every candidate up to the relaxation cap failed. *)

type error = {
  message : string;        (** one-line human-readable diagnostic *)
  reason : reason;
  lower_bound : int;       (** 0 when unschedulable before bounding *)
  bounds : Mii.bounds option;
      (** the bound breakdown when the search got that far ([None] only
          for [`Unschedulable]) *)
  attempt_log : attempt list;  (** committed attempts up to the stop *)
}

val pp_reason : Format.formatter -> reason -> unit

val pp_attempt : Format.formatter -> attempt -> unit
(** One line per candidate II: solver, feasibility, time, pivots, nodes.
    Shared by the bench and CLI drivers so their attempt logs agree. *)

val pp_stats : Format.formatter -> stats -> unit
(** One-line search summary (achieved II, bound, relaxation, attempts). *)

val log_signature : stats -> string
(** Canonical serialization of the committed search — every attempt
    field except wall times.  Two runs of the same budgeted search must
    produce equal signatures whatever [--jobs] was; the determinism
    suite asserts exactly that. *)

val search :
  ?solver:solver ->
  ?lns_rounds:int ->
  ?budget:budget ->
  ?relax_step:float ->
  ?max_relax:float ->
  Streamit.Graph.t ->
  Select.config ->
  num_sms:int ->
  (Swp_schedule.t * stats, error) result
(** Defaults: [solver = Heuristic], [lns_rounds = 12],
    [budget = default_budget], [relax_step = 0.005] (the paper's 0.5%),
    [max_relax = 4.0] (give up beyond 5x the bound).

    [lns_rounds] bounds the {!Lns.refine} probes run below the first
    feasible candidate ([0] disables refinement; [Exact] mode never
    refines).  The search is byte-identically deterministic: arms race
    in a fixed order under work-unit budgets, and refinement probes run
    serially at commit time.  Only [Exact] consults a CPU-time cap. *)
