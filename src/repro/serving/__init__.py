"""Multi-request serving on the simulated wafer.

The one serving model is :class:`WaferServer` — continuous batching on
one decode region, with chunked (or exclusive) prefill, SLO-aware
admission, priority preemption, and fault retry (see
:mod:`repro.serving.chunked`).
"""

from repro.serving.admission import (
    AdmissionDecision,
    SLOAdmission,
    backlog_tokens,
)
from repro.serving.chunked import (
    ServeEngine,
    SessionSnapshot,
    WaferServer,
    compare_modes,
)
from repro.serving.events import StepEvent, StepEventLog
from repro.serving.health import FaultLogEntry, HealthMonitor
from repro.serving.metrics import ServingMetrics, percentile
from repro.serving.request import Request, RequestStats
from repro.serving.trace import synthetic_trace

__all__ = [
    "Request",
    "RequestStats",
    "ServingMetrics",
    "StepEvent",
    "StepEventLog",
    "percentile",
    "ServeEngine",
    "SessionSnapshot",
    "WaferServer",
    "compare_modes",
    "FaultLogEntry",
    "HealthMonitor",
    "AdmissionDecision",
    "SLOAdmission",
    "backlog_tokens",
    "synthetic_trace",
]
