"""Shared order statistics for serving and fleet metric rollups.

One nearest-rank percentile definition, used by every report path —
:mod:`repro.serving.metrics` and :mod:`repro.fleet.metrics`.
Nearest-rank (as opposed to any interpolating variant) keeps every
quoted latency an *actually observed* sample, which is what an SLO
audit wants to see.

:func:`percentile` sorts its input per call and is fine for one-shot
reports; hot property accessors should sort once and reuse
:func:`percentile_sorted` (see ``ServingMetrics``'s version-keyed cache).
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1]).

    Returns 0.0 on an empty sequence so report code can quote it
    without guarding.
    """
    if not values:
        return 0.0
    return percentile_sorted(sorted(values), q)


def percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence."""
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)
    return ordered[max(idx, 0)]

