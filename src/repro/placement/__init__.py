"""Defect-aware partition planning: search, score, validate, place.

One subsystem for every layout decision: the grid/K search (the
paper's future work, :mod:`repro.placement.tune`), the prefill/decode
weight layouts and their transition (:mod:`repro.placement.transition`),
the paper's per-model grids, and the serving layer's region picks.  The
central artifact is the :class:`~repro.placement.plan.PlacementPlan` IR:
region carve-outs on the remapped logical fabric, partition shapes,
tensor layouts, and spare reservations — searched by
:class:`~repro.placement.search.PlacementPlanner`, priced by
:class:`~repro.placement.score.ThroughputScorer` over a
:class:`~repro.placement.fabric.FabricView`, and validated (reconciler +
PLMR sanitizer + hop/M/R budgets) by
:func:`~repro.placement.validate.validate_plan`.
"""

from repro.placement.fabric import FabricView
from repro.placement.plan import (
    PlacementPlan,
    PlanValidation,
    RegionCarveOut,
    RejectedPlan,
    decode_carve_for_grid,
)
from repro.placement.score import ThroughputScorer, stretched_seconds
from repro.placement.search import (
    PlacementPlanner,
    PlannerConfig,
    PlanSearchResult,
    coarse_then_refine,
    min_decode_grid,
    paper_default_plan,
    plan_placement,
    sweep_ktree,
)
from repro.placement.transition import (
    WeightPlacementPlan,
    reshard_cost,
    transition_cost,
    transposes_avoided_per_token,
)
from repro.placement.tune import (
    AutotuneResult,
    autotune,
    compare_with_paper_configs,
)
from repro.placement.validate import ValidationBudgets, validate_plan

__all__ = [
    "AutotuneResult",
    "FabricView",
    "PlacementPlan",
    "PlacementPlanner",
    "PlanSearchResult",
    "PlanValidation",
    "PlannerConfig",
    "RegionCarveOut",
    "RejectedPlan",
    "ThroughputScorer",
    "ValidationBudgets",
    "WeightPlacementPlan",
    "autotune",
    "coarse_then_refine",
    "compare_with_paper_configs",
    "decode_carve_for_grid",
    "min_decode_grid",
    "paper_default_plan",
    "plan_placement",
    "reshard_cost",
    "stretched_seconds",
    "sweep_ktree",
    "transition_cost",
    "transposes_avoided_per_token",
    "validate_plan",
]
