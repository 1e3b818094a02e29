"""The batched GEMV partial is the per-core loop, bit for bit.

A compiled ``MatvecOp`` replays as one ``np.matmul`` over contiguous
``(cores, 1, tk)`` / ``(cores, tk, tn)`` slabs, while the eager oracle
(``MeshMachine.matvec``) runs ``vec @ mat`` per core on the slab rows.
Both run numpy's matmul inner loop on identically laid out operands, so
the sums happen in the same order; these properties pin that on the
numpy and BLAS build under test (strided tiles do not have it, which is
why GEMV tiles are slab rows in every mode, DESIGN.md §10.3).  Values
span twelve orders of magnitude, so a changed summation order shows.

The K-tree levels after the partial run in the same compiled step, as
in-place ufuncs on strided views of the output slab; an element-wise
combine has the same bits over a view as per flow, and the last
properties here pin a warm ``MeshOpContext.gemv`` to the eager run on
every core, on grids 1-8.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.collectives.allreduce import two_way_group_reduce
from repro.core.device_presets import TINY_MESH
from repro.gemv.base import local_partial_gemv, scatter_gemv_operands
from repro.gemv.meshgemv import MeshGEMV
from repro.llm.mesh_ops import MeshOpContext
from repro.mesh.machine import MeshMachine
from repro.mesh.program import MatvecOp

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


def _eager_tiles(ops: MeshOpContext, padded) -> dict:
    """Each core's ``gemv.c`` after an eager MeshGEMV of ``ops``' padded
    operands, as ``MeshOpContext(compiled=False)`` runs it."""
    machine = MeshMachine(TINY_MESH.submesh(ops.grid, ops.grid))
    MeshGEMV.run(machine, *padded)
    return {coord: core.load("gemv.c") for coord, core in machine.cores.items()}


@pytest.mark.parametrize("grid", range(1, 9))
@settings(max_examples=20, deadline=None)
@given(rows=st.integers(1, 3), cols=st.integers(1, 3),
       ragged=st.integers(0, 7), dtype=dtypes, seed=seeds)
def test_warm_gemv_levels_equal_eager_on_every_core(
    grid, rows, cols, ragged, dtype, seed
):
    """A warm GEMV (the partial and its K-tree levels in one step) returns
    the eager result bit for bit, and leaves on every core, not just the
    roots, the eager run's ``gemv.c``, held as a non-exclusive
    C-contiguous row of the machine's output slab.  Lengths off the grid
    (``ragged``) go through the padded operands."""
    n = grid * rows + ragged % grid
    m = grid * cols + (ragged // 2) % grid
    ops = MeshOpContext(grid=grid)
    eager = MeshOpContext(grid=grid, compiled=False)
    for launch in range(3):  # the capture, then two warm launches
        vec, mat = _operands(seed + launch, (), n, m, dtype)
        assert ops.gemv(vec, mat).tobytes() == eager.gemv(vec, mat).tobytes()
        padded = ops._gemv_operands(vec, mat)
        want = _eager_tiles(ops, padded)
        entry = ops._resident[ops._shape_key(MeshGEMV, *padded)]
        machine = entry["machine"]
        for coord, core in machine.cores.items():
            tile = core.load("gemv.c")
            assert tile.dtype == want[coord].dtype
            assert tile.tobytes() == want[coord].tobytes(), f"core {coord}"
            if launch:
                assert tile.base is machine._slabs["gemv.c"][0]
                assert tile.flags.c_contiguous
                assert not core.is_exclusive("gemv.c")
    program = entry["program"]
    matvecs = sum(type(op) is MatvecOp for op in program.ops)
    assert matvecs == 1
    # One step per MatvecOp plus its tree: a fallback to per-flow steps
    # would lengthen the tape.
    assert len(machine._tapes[program]) == matvecs


def test_level_where_a_core_sends_and_accumulates_stays_per_flow():
    """Groups ``[[a, b], [e, d, b]]`` make ``b`` absorb ``a``'s partial
    while ``d`` absorbs ``b``'s, in one phase: ``d`` must get ``b``'s
    value from before the phase.  That level is not run on the slab; it
    replays as delivery then absorb and equals eager on every core."""
    a, b, e, d = (0, 0), (0, 1), (0, 2), (0, 3)
    device = TINY_MESH.submesh(4, 4)

    def body(machine):
        local_partial_gemv(machine)
        two_way_group_reduce(machine, [[a, b], [e, d, b]], "gemv.c", "odd")

    capture = MeshMachine(device)
    scatter_gemv_operands(capture, *_operands(0, (), 8, 8, np.float64))
    with capture.capture() as program:
        body(capture)
    operands = _operands(1, (), 8, 8, np.float64)
    eager, replayed = MeshMachine(device), MeshMachine(device)
    for machine in (eager, replayed):
        scatter_gemv_operands(machine, *operands)
    body(eager)
    program.replay(replayed)
    assert len(replayed._tapes[program]) > 1
    for coord, core in eager.cores.items():
        got = replayed.cores[coord].load("gemv.c")
        assert got.tobytes() == core.load("gemv.c").tobytes(), coord
