(** Branch-and-bound MILP solver on top of {!Simplex}.

    Depth-first search branching on the most fractional integer variable.
    Because the paper's scheduling ILP is a *feasibility* problem (the
    objective is constant), the solver stops at the first integral solution
    by default; with a non-trivial objective it keeps the best incumbent and
    prunes on the LP bound.

    The [node_budget] caps the number of LP relaxations solved, mirroring
    the paper's policy of allotting CPLEX 20 seconds per candidate II before
    relaxing the II by 0.5 %. *)

open Numeric

type stats = {
  nodes_explored : int;   (** LP relaxations solved *)
  nodes_pruned : int;     (** subtrees cut by bound or infeasibility *)
  max_depth : int;
  lp_pivots : int;        (** simplex pivots summed over every relaxation *)
  seeded : bool;          (** a warm-start incumbent was accepted *)
}

val solve :
  ?node_budget:int ->
  ?time_budget_s:float ->
  ?budget:Resil.Budget.t ->
  ?first_solution:bool ->
  ?incumbent:(int -> Rat.t) ->
  ?use_reference_lp:bool ->
  Problem.t ->
  Solution.outcome * stats
(** [solve p] solves the MILP.  [node_budget] defaults to [10_000] and
    [time_budget_s] (wall-clock seconds via [Resil.Clock], unlimited by
    default) directly mirrors
    the paper's 20-second CPLEX allotment per candidate II;
    [first_solution] defaults to [true] when the objective is constant and
    [false] otherwise.

    [budget], when given, is a {!Resil.Budget} token charged one work
    unit per branch-and-bound node and one per simplex pivot (the token
    is shared with every LP relaxation).  An exhausted token makes the
    solve return [Budget_exhausted] exactly like [node_budget]; with a
    work-unit-only token the cut-off point is deterministic.

    [incumbent], when given, is a candidate assignment (variable id to
    value).  If it satisfies the problem it seeds the search — branch
    subtrees that cannot beat it are pruned immediately, and a
    pure-feasibility query returns it without exploring at all (the
    warm-start path of the II search).  An invalid seed is ignored.

    [use_reference_lp] (default [false]) solves every relaxation with the
    dense reference simplex instead of the sparse production core — for
    benchmarking the sparse tableau against its baseline.

    The returned solution's integer variables are guaranteed integral and
    the assignment is re-verified against the problem before being
    returned. *)
