"""Pipeline-parallel scheduling and utilization accounting (Sections 7.5, 8).

The 48 KB per-core SRAM forces WaferLLM to place a model's layers across
multiple wafer *regions* and run them as a pipeline.  For a single
autoregressive stream only one region computes at a time, so chip
utilization drops by roughly the stage count — the execution-bubble
effect the paper blames for the gap between GEMV-level (22x) and
LLM-level (1.7x) energy efficiency, and the motivation for the
"hardware architecture" fix in Section 8 (5-6x more SRAM per core would
collapse the pipeline back to tensor parallelism).

:class:`PipelineSchedule` derives the stage structure for a model on a
device and quantifies bubbles for a given number of concurrent streams;
:func:`decode_speedup_if_resident` reproduces the Section 8 projection
(~10,000 tokens/s for 13B-class models once pipelining is unnecessary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.plmr import PLMRDevice
from repro.errors import ConfigurationError
from repro.llm.config import ModelConfig

#: Fraction of core SRAM usable for weights after the runtime reserve.
USABLE_MEMORY_FRACTION = 0.58


@dataclass(frozen=True)
class PipelineSchedule:
    """Layer-to-region pipeline structure of one model on one device."""

    model: ModelConfig
    device: PLMRDevice
    region_side: int

    def __post_init__(self) -> None:
        if self.region_side < 1:
            raise ConfigurationError("region side must be positive")

    @property
    def region_cores(self) -> int:
        """Cores in one pipeline-stage region."""
        return self.region_side * self.region_side

    @property
    def region_weight_capacity(self) -> int:
        """Weight bytes one region can hold."""
        return int(self.region_cores * self.device.core_memory_bytes
                   * USABLE_MEMORY_FRACTION)

    @property
    def num_stages(self) -> int:
        """Pipeline stages needed to hold the whole model."""
        return max(1, math.ceil(self.model.weight_bytes
                                / self.region_weight_capacity))

    @property
    def stages_on_fabric(self) -> int:
        """Stage regions that physically fit on the fabric."""
        per_row = self.device.mesh_width // self.region_side
        per_col = self.device.mesh_height // self.region_side
        return max(1, per_row * per_col)

    def layers_per_stage(self) -> int:
        """Transformer layers hosted by each stage (ceiling)."""
        return max(1, math.ceil(self.model.num_layers / self.num_stages))

    def utilization(self, concurrent_streams: int = 1) -> float:
        """Fraction of stage-cycles doing useful work.

        With ``s`` stages and ``m`` independent streams in flight the
        classic pipeline fill/drain analysis gives ``m / (s + m - 1)``,
        capped at 1.  A single autoregressive stream (``m = 1``) yields
        ``1 / s`` — the paper's ~5x utilization loss for ~5-stage
        placements.
        """
        if concurrent_streams < 1:
            raise ConfigurationError("at least one stream required")
        s = self.num_stages
        m = concurrent_streams
        return min(1.0, m / (s + m - 1))

    def bubble_fraction(self, concurrent_streams: int = 1) -> float:
        """Idle fraction of stage-cycles (1 - utilization)."""
        return 1.0 - self.utilization(concurrent_streams)

    def streams_for_utilization(self, target: float) -> int:
        """Concurrent streams needed to reach ``target`` utilization.

        Inverts the fill/drain relation ``u = m / (s + m - 1)``:
        ``m = u * (s - 1) / (1 - u)``, rounded up.  The serving layer
        uses this to size its decode batch so the pipeline's bubbles
        are actually filled rather than guessed at.
        """
        if not 0.0 < target < 1.0:
            raise ConfigurationError("target utilization must be in (0, 1)")
        s = self.num_stages
        if s == 1:
            return 1
        return max(1, math.ceil(target * (s - 1) / (1.0 - target)))


def decode_speedup_if_resident(
    model: ModelConfig, device: PLMRDevice, region_side: int
) -> float:
    """Projected decode speedup if pipeline stages became unnecessary.

    Section 8: growing per-core compute and SRAM ~5-6x would let the
    whole model be tensor-parallel across the active region, recovering
    the bubbled stage-cycles.  The projection is simply the single-stream
    utilization inverse, capped by the stage count.
    """
    schedule = PipelineSchedule(model, device, region_side)
    return 1.0 / schedule.utilization(concurrent_streams=1)
