"""The bit-identity rule the compiled slab steps keep with eager runs.

Finite operands give identical bits.  Operands holding infinities or
NaNs give identical bits everywhere the result is not NaN, and NaN at
the same places; a NaN's sign and payload may differ, because an
in-place reduction level can pick the other operand's NaN when both are
NaN (DESIGN.md §10.3).
"""

from __future__ import annotations

import numpy as np

NONFINITE = np.array([np.inf, -np.inf, np.nan, -np.nan])


def with_nonfinite(seed: int, x: np.ndarray, rate: float) -> np.ndarray:
    """A copy of ``x`` with about ``rate`` of its values replaced by
    ``inf``, ``-inf``, ``nan`` or ``-nan``."""
    rng = np.random.default_rng(seed)
    out = x.copy()
    hit = rng.random(out.shape) < rate
    out[hit] = rng.choice(NONFINITE, int(hit.sum()))
    return out


def assert_same_bits(got: np.ndarray, want: np.ndarray, nonfinite: bool,
                     where: object = "") -> None:
    """``got`` against ``want`` under the rule: exact bits, or, from
    non-finite operands, exact bits outside NaN and NaN at the same
    places."""
    assert got.dtype == want.dtype and got.shape == want.shape, where
    if not nonfinite:
        assert got.tobytes() == want.tobytes(), where
        return
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), where
    assert got[~nan].tobytes() == want[~nan].tobytes(), where
