"""The batched GEMV partial is the per-core loop, bit for bit.

A compiled ``MatvecOp`` replays as one ``np.matmul`` over contiguous
``(cores, 1, tk)`` / ``(cores, tk, tn)`` slabs, while the eager oracle
(``MeshMachine.matvec``) runs ``vec @ mat`` per core on the slab rows.
Both run numpy's matmul inner loop on identically laid out operands, so
the sums happen in the same order; these properties pin that on the
numpy and BLAS build under test (strided tiles do not have it, which is
why GEMV tiles are slab rows in every mode, DESIGN.md §10.3).  Values
span twelve orders of magnitude, so a changed summation order shows.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.device_presets import TINY_MESH
from repro.gemv.base import local_partial_gemv, scatter_gemv_operands
from repro.mesh.machine import MeshMachine

dims = st.integers(1, 16)
dtypes = st.sampled_from([np.float32, np.float64])
seeds = st.integers(0, 2**32 - 1)


def _operands(seed: int, lead: tuple, tk: int, tn: int, dtype):
    """A vector block and a matrix block with wide-ranging magnitudes."""
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal(lead + (tk,)) * 10.0 ** rng.integers(
        -6, 7, lead + (tk,))
    mats = rng.standard_normal(lead + (tk, tn)) * 10.0 ** rng.integers(
        -6, 7, lead + (tk, tn))
    return vecs.astype(dtype), mats.astype(dtype)


@settings(max_examples=300, deadline=None)
@given(cores=dims, tk=dims, tn=dims, dtype=dtypes, seed=seeds)
@example(cores=16, tk=4, tn=2, dtype=np.float64, seed=0)
@example(cores=16, tk=4, tn=2, dtype=np.float32, seed=1)
@example(cores=16, tk=16, tn=1, dtype=np.float64, seed=2)
@example(cores=16, tk=1, tn=16, dtype=np.float64, seed=3)
@example(cores=1, tk=16, tn=16, dtype=np.float32, seed=4)
def test_batched_product_equals_per_core_loop(cores, tk, tn, dtype, seed):
    vecs, mats = _operands(seed, (cores,), tk, tn, dtype)
    out = np.empty((cores, tn), dtype)
    np.matmul(vecs[:, None, :], mats, out=out[:, None, :])
    for i in range(cores):
        want = vecs[i] @ mats[i]
        assert want.dtype == out.dtype
        assert want.tobytes() == out[i].tobytes(), f"core {i} differs"


@settings(max_examples=60, deadline=None)
@given(grid=st.integers(1, 4), tk=dims, tn=dims, dtype=dtypes, seed=seeds)
@example(grid=4, tk=4, tn=2, dtype=np.float64, seed=0)
@example(grid=4, tk=8, tn=1, dtype=np.float64, seed=1)
def test_compiled_partial_equals_eager_matvec(grid, tk, tn, dtype, seed):
    """A captured partial replayed on fresh operands leaves the tiles an
    eager partial of those operands leaves."""
    device = TINY_MESH.submesh(grid, grid)
    capture = MeshMachine(device)
    scatter_gemv_operands(capture, *_operands(seed, (), grid * tk, grid * tn,
                                              dtype))
    with capture.capture() as program:
        local_partial_gemv(capture)
    a, b = _operands(seed + 1, (), grid * tk, grid * tn, dtype)
    eager, replayed = MeshMachine(device), MeshMachine(device)
    for machine in (eager, replayed):
        scatter_gemv_operands(machine, a, b)
    local_partial_gemv(eager)
    program.replay(replayed)
    for coord, core in eager.cores.items():
        want = core.load("gemv.c")
        got = replayed.cores[coord].load("gemv.c")
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), f"core {coord} differs"
