"""The planner's single scoring path.

Every throughput number a placement decision rests on — the autotune
sweep, the paper-config comparison, the defect-aware planner's candidate
ranking, and the EXPERIMENTS.md table — comes from one memoized scorer,
so "paper vs tuned vs planned" reports can never drift apart by taking
different code paths (the bug class this module exists to kill:
``compare_with_paper_configs`` used to re-run the throughput
computations ``autotune`` had already done, on a second code path).

Degradation enters as a *communication stretch factor* measured by
:meth:`~repro.placement.fabric.FabricView.comm_stretch`: arithmetic is
unaffected by where a region sits, so only the exposed communication of
the calibrated cost is scaled.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.plmr import PLMRDevice
from repro.llm.config import ModelConfig
from repro.llm.wafer_system import WaferLLMSystem
from repro.mesh.cost_model import KernelCost


def stretched_seconds(cost: KernelCost, stretch: float) -> float:
    """Wall-clock of a kernel cost with its exposed comm stretched.

    Compute cycles are placement-invariant; the communication the
    overlap model could not hide stretches by the fabric factor.
    """
    if stretch <= 1.0:
        return cost.seconds
    total = cost.compute_cycles + cost.exposed_comm_cycles * stretch
    return cost.device.cycles_to_seconds(total)


class ThroughputScorer:
    """Memoized prefill/decode rates for one (model, device) pair.

    ``prefill(grid)`` / ``decode(grid)`` are the pristine-mesh rates
    :func:`~repro.placement.tune.autotune` searches; the ``stretch`` argument prices the same
    configuration on a degraded fabric.  Costs are cached per grid, so
    re-scoring a grid at a different stretch (a different anchor) costs
    one multiply, not a schedule walk.
    """

    def __init__(
        self,
        model: ModelConfig,
        device: PLMRDevice,
        seq_len: int = 4096,
        context_len: int = 2048,
        system: Optional[WaferLLMSystem] = None,
    ):
        self.model = model
        self.device = device
        self.seq_len = seq_len
        self.context_len = context_len
        self.system = system or WaferLLMSystem(device)
        self._prefill_costs: Dict[int, KernelCost] = {}
        self._decode_costs: Dict[int, KernelCost] = {}
        self.evaluations = 0

    # ------------------------------------------------------------------
    def prefill_cost(self, grid: int) -> KernelCost:
        """Cached prefill-pass cost at one grid."""
        cost = self._prefill_costs.get(grid)
        if cost is None:
            cost = self.system.prefill_cost(self.model, self.seq_len, grid)
            self._prefill_costs[grid] = cost
            self.evaluations += 1
        return cost

    def decode_cost(self, grid: int) -> KernelCost:
        """Cached decode-step cost at one grid."""
        cost = self._decode_costs.get(grid)
        if cost is None:
            cost = self.system.decode_token_cost(
                self.model, self.context_len, grid
            )
            self._decode_costs[grid] = cost
            self.evaluations += 1
        return cost

    # ------------------------------------------------------------------
    def prefill(self, grid: int, stretch: float = 1.0) -> float:
        """Prefill tokens/s at one grid (optionally on a degraded fabric)."""
        return self.seq_len / stretched_seconds(self.prefill_cost(grid),
                                                stretch)

    def decode(self, grid: int, stretch: float = 1.0) -> float:
        """Decode tokens/s at one grid (optionally on a degraded fabric)."""
        return 1.0 / stretched_seconds(self.decode_cost(grid), stretch)

    def score_pair(
        self,
        prefill_grid: int,
        decode_grid: int,
        prefill_stretch: float = 1.0,
        decode_stretch: float = 1.0,
    ) -> Dict[str, float]:
        """Both headline rates of one configuration, as a report dict."""
        return {
            "prefill_grid": prefill_grid,
            "decode_grid": decode_grid,
            "prefill_tok_s": self.prefill(prefill_grid, prefill_stretch),
            "decode_tok_s": self.decode(decode_grid, decode_stretch),
        }
