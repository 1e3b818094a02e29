"""Seeded synthetic request traces for serving experiments.

Serving comparisons are only meaningful on *identical* traces, so the
generator is a pure function of its seed (stdlib ``random.Random`` —
no new dependencies) and every benchmark, test, and CLI run can share
one trace by sharing one seed.  The shape follows the serving
literature's workload model: Poisson arrivals (exponential
inter-arrival gaps), log-uniform-ish prompt lengths, a small set of
priority classes, and per-class latency SLOs.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.serving.request import Request


def synthetic_trace(
    num_requests: int,
    seed: int = 0,
    mean_interarrival_s: float = 0.05,
    seq_in_range: Tuple[int, int] = (256, 2048),
    seq_out_range: Tuple[int, int] = (32, 256),
    priorities: Sequence[int] = (0, 1),
    ttft_slo_s: Optional[float] = None,
    tpot_slo_s: Optional[float] = None,
) -> List[Request]:
    """Generate a deterministic request trace.

    ``ttft_slo_s`` / ``tpot_slo_s`` apply to every generated request
    when given; ``None`` leaves the trace best-effort.
    """
    if num_requests < 1:
        raise ConfigurationError("num_requests must be positive")
    if not 0 <= mean_interarrival_s < math.inf:  # NaN fails too
        raise ConfigurationError(
            "mean_interarrival_s must be finite and non-negative"
        )
    lo_in, hi_in = seq_in_range
    lo_out, hi_out = seq_out_range
    if lo_in < 1 or hi_in < lo_in or lo_out < 1 or hi_out < lo_out:
        raise ConfigurationError("sequence ranges must be 1 <= lo <= hi")
    if not priorities:
        raise ConfigurationError("at least one priority class required")
    rng = random.Random(seed)
    arrival = 0.0
    trace: List[Request] = []
    for request_id in range(num_requests):
        if request_id > 0 and mean_interarrival_s > 0:
            arrival += rng.expovariate(1.0 / mean_interarrival_s)
        trace.append(Request(
            request_id=request_id,
            seq_in=rng.randint(lo_in, hi_in),
            seq_out=rng.randint(lo_out, hi_out),
            arrival_s=arrival,
            priority=rng.choice(list(priorities)),
            ttft_slo_s=ttft_slo_s,
            tpot_slo_s=tpot_slo_s,
        ))
    return trace
