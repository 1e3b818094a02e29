"""The placement search driver: coarse sweep + local refinement.

Generalizes a unimodal grid sweep (:func:`coarse_then_refine`) from
"pick a grid side on the pristine mesh" to "pick *regions* on the
remapped, degraded fabric": every candidate grid is priced at its best
anchor among corner/center/seeded-random positions using the batched
flow engine's communication stretch
(:meth:`~repro.placement.fabric.FabricView.comm_stretch`), and the
ranked winners are *validated, not just scored* — replayed through the
reconciler and the PLMR trace sanitizer
(:func:`~repro.placement.validate.validate_plan`) before one is emitted.
Candidates the validators kill are kept as
:class:`~repro.placement.plan.RejectedPlan` records, findings attached.

The paper's hand-chosen grids are always seeded into the candidate set,
so on any fabric the emitted plan scores at least as well as the paper
default under the same cost model.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.plmr import PLMRDevice
from repro.errors import ConfigurationError, PlacementError
from repro.gemv.meshgemv import meshgemv_with_k
from repro.llm.config import ModelConfig
from repro.llm.kvcache import region_token_capacity
from repro.llm.wafer_system import WaferLLMSystem
from repro.mesh.remap import DefectMap
from repro.placement.fabric import FabricView
from repro.placement.plan import (
    Coord,
    PlacementPlan,
    RegionCarveOut,
    RejectedPlan,
)
from repro.placement.score import ThroughputScorer
from repro.placement.transition import WeightPlacementPlan
from repro.placement.validate import ValidationBudgets, validate_plan
from repro.runtime.scheduler import USABLE_MEMORY_FRACTION

#: Deepest weight pipeline the search will accept (M property).
MAX_PIPELINE_STAGES = 64


@dataclass(frozen=True)
class SearchSweep:
    """Result of one coarse-then-refine sweep over a 1-D objective."""

    best: int
    value: float
    evaluated: Dict[int, float]

    @property
    def evaluations(self) -> int:
        """Distinct arguments the objective was measured at."""
        return len(self.evaluated)

    def ranked(self) -> List[int]:
        """Arguments sorted best-first."""
        return sorted(self.evaluated, key=self.evaluated.get, reverse=True)


def coarse_then_refine(
    objective: Callable[[int], float],
    lo: int,
    hi: int,
    coarse_step: int,
) -> SearchSweep:
    """Coarse sweep + local refinement over one grid axis.

    The objective need not be perfectly unimodal — the refinement stage
    re-checks every grid around the coarse winner, so small ripples
    cannot trap the search more than ``coarse_step`` away from optimum.
    """
    evaluated: Dict[int, float] = {}

    def measure(grid: int) -> float:
        if grid not in evaluated:
            evaluated[grid] = objective(grid)
        return evaluated[grid]

    coarse = list(range(lo, hi + 1, coarse_step))
    if coarse[-1] != hi:
        coarse.append(hi)
    best = max(coarse, key=measure)
    window_lo = max(lo, best - coarse_step)
    window_hi = min(hi, best + coarse_step)
    fine_step = max(1, coarse_step // 10)
    for grid in range(window_lo, window_hi + 1, fine_step):
        measure(grid)
    best = max(evaluated, key=evaluated.get)
    return SearchSweep(best=best, value=evaluated[best], evaluated=evaluated)


def min_decode_grid(
    model: ModelConfig, device: PLMRDevice, context_len: int = 2048
) -> int:
    """Smallest decode grid whose region satisfies the M property.

    Two per-grid requirements:

    * the ``grid x grid`` region must hold the live context — its
      aggregate KV capacity (:func:`~repro.llm.kvcache.region_token_capacity`,
      which shrinks as weights spread over fewer cores and KV rows
      widen) must reach ``context_len`` tokens;
    * the weight pipeline depth at that spread must stay under
      :data:`MAX_PIPELINE_STAGES`.

    The pre-refactor check computed a KV budget from
    ``device.num_cores`` — loop-invariant in ``grid`` — and compared it
    against a floor the budget was already clamped to, so it tested
    nothing about the grid being considered; only the stage bound ever
    bound.  Now the capacity requirement genuinely varies with (and
    binds for) the grid: llama2-13b's floor, for instance, is set by
    context capacity, not stages.
    """
    side = min(device.mesh_width, device.mesh_height)
    for grid in range(8, side + 1, 4):
        tokens = region_token_capacity(
            model, grid, device.core_memory_bytes, device.num_cores
        )
        per_core_weights = model.weight_bytes / (grid * grid)
        region_capacity = device.core_memory_bytes * USABLE_MEMORY_FRACTION
        stages = math.ceil(per_core_weights / region_capacity)
        if tokens >= context_len and stages < MAX_PIPELINE_STAGES:
            return grid
    return side


def sweep_ktree(
    model: ModelConfig, device: PLMRDevice, decode_grid: int
) -> Tuple[int, int]:
    """Exhaustive K-tree arity sweep on the decode GEMV shape.

    Returns ``(best_k, evaluations)``; K is discrete and tiny, so all
    four arities are measured.
    """
    best_k, best_cycles, evals = 2, None, 0
    for k in (1, 2, 3, 4):
        kernel = meshgemv_with_k(k)
        cost = kernel.estimate(
            device, rows=model.d_model, cols=model.d_ff,
            grid=min(decode_grid, model.d_model),
        )
        evals += 1
        if best_cycles is None or cost.total_cycles < best_cycles:
            best_cycles, best_k = cost.total_cycles, k
    return best_k, evals


# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PlannerConfig:
    """Knobs of one planner run (all deterministic given ``seed``)."""

    seed: int = 0
    coarse_step: int = 60
    seq_len: int = 4096
    context_len: int = 2048
    extra_anchors: int = 2
    spare_count: int = 1
    validate: bool = True
    probe_side: int = 4
    hop_budget: int = 6
    max_validation_attempts: int = 4

    def __post_init__(self) -> None:
        if self.spare_count < 0:
            raise ConfigurationError(
                f"spare_count must be >= 0, got {self.spare_count}"
            )


@dataclass
class PlanSearchResult:
    """The emitted plan plus the candidates measured and rejected."""

    plan: PlacementPlan
    rejected: List[RejectedPlan] = field(default_factory=list)

    @property
    def candidates_evaluated(self) -> int:
        """Convenience mirror of the plan's counter."""
        return self.plan.candidates_evaluated


class PlacementPlanner:
    """Defect-aware search over region placements for one model/fabric."""

    def __init__(
        self,
        model: ModelConfig,
        device: PLMRDevice,
        defects: Optional[DefectMap] = None,
        config: Optional[PlannerConfig] = None,
    ):
        self.model = model
        self.device = device
        self.config = config or PlannerConfig()
        self.view = FabricView(device, defects)
        if self.view.side < 8:
            raise ConfigurationError(
                f"device fabric {self.view.side} too small for "
                f"parallelism search"
            )
        self.scorer = ThroughputScorer(
            model, device,
            seq_len=self.config.seq_len,
            context_len=self.config.context_len,
        )
        self.system = self.scorer.system
        # Memoized per-grid best anchor: grid -> (anchor, stretch).
        self._anchor_cache: Dict[int, Tuple[Coord, float]] = {}
        self._stretch_evals = 0

    # ------------------------------------------------------------------
    def _anchor_candidates(self, grid: int) -> List[Coord]:
        """Corner/center anchors plus seeded random samples for a grid."""
        mx = self.view.logical_width - grid
        my = self.view.logical_height - grid
        if mx < 0 or my < 0:
            return []
        anchors = {(0, 0), (mx, 0), (0, my), (mx, my), (mx // 2, my // 2)}
        rng = random.Random(self.config.seed * 1000003 + grid)
        for _ in range(self.config.extra_anchors):
            anchors.add((rng.randrange(mx + 1), rng.randrange(my + 1)))
        return sorted(anchors)

    def best_anchor(self, grid: int) -> Tuple[Coord, float]:
        """Least-stretched anchor for a ``grid x grid`` carve-out.

        On a pristine fabric every anchor stretches 1.0, so (0, 0) wins
        immediately and the search degenerates to the pristine grid sweep.
        """
        cached = self._anchor_cache.get(grid)
        if cached is not None:
            return cached
        if self.view.is_pristine:
            best = ((0, 0), 1.0)
        else:
            best = None
            for anchor in self._anchor_candidates(grid):
                carve = RegionCarveOut(
                    "probe", anchor[0], anchor[1], grid, grid, role="search"
                )
                stretch = self.view.comm_stretch(carve)
                self._stretch_evals += 1
                if best is None or stretch < best[1]:
                    best = (anchor, stretch)
            if best is None:
                raise ConfigurationError(
                    f"grid {grid} does not fit the "
                    f"{self.view.logical_width}x{self.view.logical_height} "
                    f"logical mesh"
                )
        self._anchor_cache[grid] = best
        return best

    # ------------------------------------------------------------------
    def _prefill_objective(self, grid: int) -> float:
        _, stretch = self.best_anchor(grid)
        return self.scorer.prefill(grid, stretch)

    def _decode_objective(self, grid: int) -> float:
        _, stretch = self.best_anchor(grid)
        return self.scorer.decode(grid, stretch)

    def _sweep_bounds(self) -> Tuple[int, int]:
        side = self.view.side
        lo = max(8, min(60, side // 4))
        return lo, side

    def _seed_paper_grids(self, sweep: SearchSweep,
                          objective: Callable[[int], float],
                          paper_grid: int, lo: int) -> SearchSweep:
        """Ensure the paper's hand-chosen grid is in the candidate set."""
        grid = max(lo, min(paper_grid, self.view.side))
        if grid not in sweep.evaluated:
            evaluated = dict(sweep.evaluated)
            evaluated[grid] = objective(grid)
            best = max(evaluated, key=evaluated.get)
            return SearchSweep(best=best, value=evaluated[best],
                               evaluated=evaluated)
        return sweep

    def _select_spares(self, decode_region: RegionCarveOut) -> Tuple[
            RegionCarveOut, ...]:
        """Decode-sized reserves off the decode region, least stretch first.

        Falls back to half-size reserves when the fabric cannot host a
        disjoint full-size one; returns fewer than requested (possibly
        none) on tight fabrics rather than overlapping the live region.
        """
        spares: List[RegionCarveOut] = []
        if self.config.spare_count < 1:
            return ()
        for size in (decode_region.grid, max(2, decode_region.grid // 2)):
            candidates: List[Tuple[float, Coord]] = []
            for anchor in self._anchor_candidates(size):
                carve = RegionCarveOut(
                    "probe", anchor[0], anchor[1], size, size, role="search"
                )
                if carve.overlaps(decode_region) or any(
                        carve.overlaps(s) for s in spares):
                    continue
                stretch = (1.0 if self.view.is_pristine
                           else self.view.comm_stretch(carve))
                self._stretch_evals += 1
                candidates.append((stretch, anchor))
            for stretch, anchor in sorted(candidates):
                if len(spares) >= self.config.spare_count:
                    return tuple(spares)
                spares.append(RegionCarveOut(
                    f"spare{len(spares)}", anchor[0], anchor[1],
                    size, size, role="spare",
                ))
            if spares:
                break
        return tuple(spares)

    # ------------------------------------------------------------------
    def _assemble(
        self,
        prefill_grid: int,
        decode_grid: int,
        ktree_k: int,
        evals: int,
    ) -> PlacementPlan:
        p_anchor, p_stretch = self.best_anchor(prefill_grid)
        d_anchor, d_stretch = self.best_anchor(decode_grid)
        prefill_region = RegionCarveOut(
            "prefill0", p_anchor[0], p_anchor[1],
            prefill_grid, prefill_grid, role="prefill",
        )
        decode_region = RegionCarveOut(
            "decode0", d_anchor[0], d_anchor[1],
            decode_grid, decode_grid, role="decode",
        )
        layouts = WeightPlacementPlan(self.model)
        return PlacementPlan(
            model=self.model.name.split("[")[0],
            device=self.device.name,
            logical_width=self.view.logical_width,
            logical_height=self.view.logical_height,
            prefill_region=prefill_region,
            decode_region=decode_region,
            spare_regions=self._select_spares(decode_region),
            ktree_k=ktree_k,
            prefill_tokens_per_s=self.scorer.prefill(prefill_grid, p_stretch),
            decode_tokens_per_s=self.scorer.decode(decode_grid, d_stretch),
            prefill_comm_stretch=p_stretch,
            decode_comm_stretch=d_stretch,
            num_defects=self.view.num_defects,
            seed=self.config.seed,
            candidates_evaluated=evals,
            prefill_layouts=tuple(layouts.prefill_layouts()),
            decode_layouts=tuple(layouts.decode_layouts()),
        )

    def _budgets(self) -> ValidationBudgets:
        return ValidationBudgets(
            hop_budget=self.config.hop_budget,
            min_kv_tokens=self.config.context_len,
            probe_side=self.config.probe_side,
        )

    def search(self) -> PlanSearchResult:
        """Run the full search; emit the best *validating* plan.

        Raises :class:`~repro.errors.PlacementError` when every ranked
        candidate is rejected (the rejections' findings say why).
        """
        cfg = self.config
        lo, side = self._sweep_bounds()

        prefill_sweep = coarse_then_refine(
            self._prefill_objective, lo, side, cfg.coarse_step
        )
        prefill_sweep = self._seed_paper_grids(
            prefill_sweep, self._prefill_objective,
            self.system.prefill_grid(self.model), lo,
        )

        decode_lo = max(
            min_decode_grid(self.model, self.device, cfg.context_len), lo
        )
        decode_sweep = coarse_then_refine(
            self._decode_objective, decode_lo, side, cfg.coarse_step
        )
        decode_sweep = self._seed_paper_grids(
            decode_sweep, self._decode_objective,
            self.system.decode_grid(self.model), decode_lo,
        )

        ktree_k, k_evals = sweep_ktree(
            self.model, self.device, decode_sweep.best
        )
        evals = prefill_sweep.evaluations + decode_sweep.evaluations + k_evals

        rejected: List[RejectedPlan] = []
        attempts = decode_sweep.ranked()[:max(1, cfg.max_validation_attempts)]
        for decode_grid in attempts:
            plan = self._assemble(
                prefill_sweep.best, decode_grid, ktree_k, evals
            )
            if not cfg.validate:
                return PlanSearchResult(plan=plan, rejected=rejected)
            validation = validate_plan(
                plan, self.view, self.model, self._budgets()
            )
            plan.validation = validation
            if validation.ok:
                return PlanSearchResult(plan=plan, rejected=rejected)
            rejected.append(RejectedPlan(
                plan=plan,
                findings=list(validation.findings),
                reason=(
                    f"decode candidate {decode_grid}x{decode_grid} at "
                    f"{plan.decode_region.x},{plan.decode_region.y} failed "
                    f"validation"
                ),
            ))
        raise PlacementError(
            "no placement candidate survived validation; "
            + "; ".join(
                f.render() for r in rejected for f in r.findings[:2]
            )
        )


def plan_placement(
    model: ModelConfig,
    device: PLMRDevice,
    defects: Optional[DefectMap] = None,
    config: Optional[PlannerConfig] = None,
) -> PlanSearchResult:
    """One-call front door: search placements for a model on a fabric."""
    return PlacementPlanner(model, device, defects, config).search()


def paper_default_plan(
    model: ModelConfig,
    device: PLMRDevice,
    defects: Optional[DefectMap] = None,
    config: Optional[PlannerConfig] = None,
) -> PlacementPlan:
    """The paper's hand-chosen layout, priced on the same (degraded) view.

    Anchored at the origin with the per-model grids of Section 4.4
    (clamped to the logical mesh) — the baseline the planner is compared
    against in ``repro place --compare-paper`` and EXPERIMENTS.md.
    """
    cfg = config or PlannerConfig()
    planner = PlacementPlanner(model, device, defects, cfg)
    side = planner.view.side
    prefill_grid = min(planner.system.prefill_grid(model), side)
    decode_grid = min(planner.system.decode_grid(model), side)
    p_carve = RegionCarveOut(
        "prefill0", 0, 0, prefill_grid, prefill_grid, role="prefill"
    )
    d_carve = RegionCarveOut(
        "decode0", 0, 0, decode_grid, decode_grid, role="decode"
    )
    p_stretch = (1.0 if planner.view.is_pristine
                 else planner.view.comm_stretch(p_carve))
    d_stretch = (1.0 if planner.view.is_pristine
                 else planner.view.comm_stretch(d_carve))
    layouts = WeightPlacementPlan(model)
    return PlacementPlan(
        model=model.name.split("[")[0],
        device=device.name,
        logical_width=planner.view.logical_width,
        logical_height=planner.view.logical_height,
        prefill_region=p_carve,
        decode_region=d_carve,
        spare_regions=(),
        ktree_k=2,
        prefill_tokens_per_s=planner.scorer.prefill(prefill_grid, p_stretch),
        decode_tokens_per_s=planner.scorer.decode(decode_grid, d_stretch),
        prefill_comm_stretch=p_stretch,
        decode_comm_stretch=d_stretch,
        num_defects=planner.view.num_defects,
        seed=cfg.seed,
        candidates_evaluated=2,
        prefill_layouts=tuple(layouts.prefill_layouts()),
        decode_layouts=tuple(layouts.decode_layouts()),
    )
