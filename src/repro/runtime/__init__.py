"""Runtime concerns: memory audit and pipeline scheduling.

Weight placement and the prefill -> decode transition live in
:mod:`repro.placement`.
"""

from repro.runtime.memory_audit import (
    MemoryAudit,
    admissible_models,
    audit_model,
    required_layer_subset,
)
from repro.runtime.scheduler import (
    USABLE_MEMORY_FRACTION,
    PipelineSchedule,
    decode_speedup_if_resident,
)

__all__ = [
    "PipelineSchedule",
    "decode_speedup_if_resident",
    "USABLE_MEMORY_FRACTION",
    "MemoryAudit",
    "audit_model",
    "admissible_models",
    "required_layer_subset",
]
