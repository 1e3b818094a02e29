"""The :class:`PlacementPlan` IR — one searchable, checkable layout artifact.

Every decision about where things go on the wafer lands here: the
searched grids, the prefill/decode weight layouts, the paper's per-model
grids, the serving decode region and spare count, and the tensor axis
maps.  The :class:`PlacementPlan` holds them together: region carve-outs on the *logical*
(defect-remapped) fabric, partition/grid shapes, per-phase tensor
layouts, and spare-region reservations — produced by one search driver
(:mod:`repro.placement.search`), validated by the reconciler and the
PLMR trace sanitizer (:mod:`repro.placement.validate`), and threaded
through system construction and serving.

Construction discipline: region carve-outs are *planner output*.  The
``region-carveout-outside-planner`` lint rule flags direct
``RegionCarveOut(...)`` construction outside ``src/repro/placement/``;
other layers obtain regions from a plan or from the helpers here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.errors import ConfigurationError
from repro.llm.tensor_layout import TensorLayout

Coord = Tuple[int, int]

#: Roles a carve-out can play in a plan.
REGION_ROLES = ("prefill", "decode", "spare", "search")


@dataclass(frozen=True)
class RegionCarveOut:
    """A rectangular region of the *logical* mesh reserved for one role.

    Coordinates are logical: on a defective wafer the remap already
    hides dead cores, so a carve-out can never sit on one — the planner
    and its property tests assert this through
    :meth:`~repro.placement.fabric.FabricView.to_physical`.
    """

    name: str
    x: int
    y: int
    width: int
    height: int
    role: str = "decode"

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigurationError(
                f"carve-out {self.name!r} must have positive dims, got "
                f"{self.width}x{self.height}"
            )
        if self.x < 0 or self.y < 0:
            raise ConfigurationError(
                f"carve-out {self.name!r} anchor must be non-negative"
            )
        if self.role not in REGION_ROLES:
            raise ConfigurationError(
                f"carve-out role must be one of {REGION_ROLES}, "
                f"got {self.role!r}"
            )

    # ------------------------------------------------------------------
    @property
    def num_cores(self) -> int:
        """Logical cores inside the carve-out."""
        return self.width * self.height

    @property
    def grid(self) -> int:
        """Square-grid side (the partition shape kernels run on)."""
        return min(self.width, self.height)

    def contains(self, coord: Coord) -> bool:
        """Whether a logical coordinate falls inside the carve-out."""
        cx, cy = coord
        return self.x <= cx < self.x + self.width and \
            self.y <= cy < self.y + self.height

    def overlaps(self, other: "RegionCarveOut") -> bool:
        """Whether two carve-outs share any logical core."""
        return not (
            self.x + self.width <= other.x
            or other.x + other.width <= self.x
            or self.y + self.height <= other.y
            or other.y + other.height <= self.y
        )

    def coords(self) -> Iterator[Coord]:
        """Logical coordinates of the carve-out, row-major."""
        for dy in range(self.height):
            for dx in range(self.width):
                yield (self.x + dx, self.y + dy)

    def fits(self, logical_width: int, logical_height: int) -> bool:
        """Whether the carve-out lies inside a logical mesh."""
        return (
            self.x + self.width <= logical_width
            and self.y + self.height <= logical_height
        )

    def to_dict(self) -> Dict:
        """JSON-serializable form."""
        return {
            "name": self.name,
            "x": self.x,
            "y": self.y,
            "width": self.width,
            "height": self.height,
            "role": self.role,
        }


def decode_carve_for_grid(grid: int, name: str = "decode0") -> RegionCarveOut:
    """Default decode carve-out for a bare grid (no plan in hand).

    The serving layer falls back to this when constructed without a
    :class:`PlacementPlan`; keeping the constructor inside the placement
    subsystem is what the ``region-carveout-outside-planner`` lint rule
    enforces.
    """
    if grid < 1:
        raise ConfigurationError(f"grid must be positive, got {grid}")
    return RegionCarveOut(name=name, x=0, y=0, width=grid, height=grid,
                          role="decode")


# ---------------------------------------------------------------------------
@dataclass
class PlanValidation:
    """Outcome of replaying a plan through the reconciler and sanitizer.

    ``findings`` carries every budget breach and sanitizer finding; an
    emitted (accepted) plan has ``ok=True`` and zero findings — rejected
    candidates keep theirs so the search can report *why* each
    alternative died (see :class:`RejectedPlan`).
    """

    probe_grid: int
    findings: List[Finding] = field(default_factory=list)
    reconcile_ok: bool = False
    sanitize_ok: bool = False
    budgets_ok: bool = False
    reconcile_summary: str = ""

    @property
    def ok(self) -> bool:
        """Plan passed every check with zero findings."""
        return (
            not self.findings
            and self.reconcile_ok
            and self.sanitize_ok
            and self.budgets_ok
        )

    def to_dict(self) -> Dict:
        """JSON-serializable form."""
        return {
            "ok": self.ok,
            "probe_grid": self.probe_grid,
            "reconcile_ok": self.reconcile_ok,
            "sanitize_ok": self.sanitize_ok,
            "budgets_ok": self.budgets_ok,
            "findings": [f.to_dict() for f in self.findings],
        }

    def render(self) -> str:
        """Human-readable one-or-more-line summary."""
        if self.ok:
            return (
                f"valid (probe {self.probe_grid}x{self.probe_grid}: "
                f"reconciled, sanitized clean, budgets met)"
            )
        lines = [f"INVALID (probe {self.probe_grid}x{self.probe_grid}):"]
        lines += [f"  {f.render()}" for f in self.findings]
        return "\n".join(lines)


@dataclass
class PlacementPlan:
    """One complete placement decision for a model on a fabric.

    Everything downstream consumes *this* — ``WaferLLMSystem`` grids,
    ``WaferTransformer`` functional context, the serving layer's region
    and spare choices — so a placement change is one artifact swap, not
    five coordinated edits.
    """

    model: str
    device: str
    logical_width: int
    logical_height: int
    prefill_region: RegionCarveOut
    decode_region: RegionCarveOut
    spare_regions: Tuple[RegionCarveOut, ...]
    ktree_k: int
    prefill_tokens_per_s: float
    decode_tokens_per_s: float
    prefill_comm_stretch: float = 1.0
    decode_comm_stretch: float = 1.0
    num_defects: int = 0
    seed: int = 0
    candidates_evaluated: int = 0
    prefill_layouts: Tuple[TensorLayout, ...] = ()
    decode_layouts: Tuple[TensorLayout, ...] = ()
    validation: Optional[PlanValidation] = None

    # ------------------------------------------------------------------
    @property
    def prefill_grid(self) -> int:
        """Partition side used during prefill."""
        return self.prefill_region.grid

    @property
    def decode_grid(self) -> int:
        """Partition side used during decode."""
        return self.decode_region.grid

    @property
    def functional_grid(self) -> int:
        """Probe-scale grid for functional (bit-level) execution.

        Wafer-scale grids cannot be simulated functionally; the plan's
        validation probe ran at this side, so the functional transformer
        uses the same scale.
        """
        if self.validation is not None:
            return self.validation.probe_grid
        return min(4, self.decode_grid)

    @property
    def is_validated(self) -> bool:
        """Whether the plan replayed clean through reconciler + sanitizer."""
        return self.validation is not None and self.validation.ok

    def regions(self) -> List[RegionCarveOut]:
        """Every carve-out the plan reserves."""
        return [self.prefill_region, self.decode_region,
                *self.spare_regions]

    def matches(self, model_name: str) -> bool:
        """Whether the plan was searched for this model (base name)."""
        return self.model == model_name.split("[")[0]

    def to_dict(self) -> Dict:
        """JSON-serializable form (the ``repro place --json`` payload)."""
        return {
            "model": self.model,
            "device": self.device,
            "logical_mesh": [self.logical_width, self.logical_height],
            "num_defects": self.num_defects,
            "seed": self.seed,
            "prefill_region": self.prefill_region.to_dict(),
            "decode_region": self.decode_region.to_dict(),
            "spare_regions": [r.to_dict() for r in self.spare_regions],
            "prefill_grid": self.prefill_grid,
            "decode_grid": self.decode_grid,
            "ktree_k": self.ktree_k,
            "prefill_tokens_per_s": self.prefill_tokens_per_s,
            "decode_tokens_per_s": self.decode_tokens_per_s,
            "prefill_comm_stretch": self.prefill_comm_stretch,
            "decode_comm_stretch": self.decode_comm_stretch,
            "candidates_evaluated": self.candidates_evaluated,
            "validation": (
                self.validation.to_dict() if self.validation else None
            ),
        }


@dataclass
class RejectedPlan:
    """A candidate the search measured and the validators killed.

    The findings that killed it travel with the rejection so
    ``repro place --explain`` (and DESIGN.md's measured-and-rejected
    log) can say exactly why each alternative lost.
    """

    plan: PlacementPlan
    findings: List[Finding]
    reason: str

    def to_dict(self) -> Dict:
        """JSON-serializable form."""
        return {
            "reason": self.reason,
            "decode_region": self.plan.decode_region.to_dict(),
            "decode_tokens_per_s": self.plan.decode_tokens_per_s,
            "findings": [f.to_dict() for f in self.findings],
        }
