"""Slab-resident MeshGEMM and dist-GEMM-T: the batched replay is the
per-core loop, bit for bit.

A compiled ``MatmulOp`` replays as one ``np.matmul`` over contiguous
``(cores, tm, tk)`` / ``(cores, tk, tn)`` slabs (a transposed view of
``(cores, tn, tk)`` for dist-GEMM-T), plus one in-place add into the
output slab when a MeshGEMM step accumulates; each ring shift is one
row permutation of its slab, and each dist-GEMM-T step's deliveries
one copy of rows from the ``gemmt.P`` slab into the ``gemmt.C`` slab.
The eager oracle
(``MeshMachine.matmul``) runs ``a @ b`` per core on contiguous tiles,
so both sum in the same order; these properties pin that on the numpy
and BLAS build under test (DESIGN.md §10.3).  Values span twelve
orders of magnitude, so a changed summation order shows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.collectives.interleave import (
    identity_placement,
    interleave_placement,
)
from repro.core.device_presets import TINY_MESH
from repro.gemm.cyclic import bind_cyclic_operands, cyclic_gemm_body
from repro.gemm.gemm_t import MeshGEMMTransposed
from repro.gemm.meshgemm import MeshGEMM
from repro.llm.checkpoint import synthesize_weights
from repro.llm.config import TINY_GQA
from repro.llm.distributed import WaferTransformer
from repro.llm.mesh_ops import MeshOpContext
from repro.mesh.machine import MeshMachine
from repro.mesh.program import MatmulOp, ProgramReplayError
from tests.bits import assert_same_bits, with_nonfinite

dims = st.integers(1, 12)
dtypes = st.sampled_from([np.float32, np.float64])
seeds = st.integers(0, 2**32 - 1)


def _wide(rng, shape, dtype):
    """Standard normals scaled by 1e-6 .. 1e6, element by element."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
    return values.astype(dtype)


@settings(max_examples=200, deadline=None)
@given(cores=st.integers(1, 16), tm=dims, tk=dims, tn=dims, dtype=dtypes,
       seed=seeds)
@example(cores=16, tm=4, tk=4, tn=8, dtype=np.float64, seed=0)
@example(cores=16, tm=1, tk=4, tn=1, dtype=np.float32, seed=1)
@example(cores=64, tm=2, tk=2, tn=2, dtype=np.float64, seed=2)
def test_batched_matmul_equals_per_core_loop(cores, tm, tk, tn, dtype, seed):
    """The three compiled products, slab by slab, against ``a @ b``,
    ``a @ b.T`` and ``c + a @ b`` per core."""
    rng = np.random.default_rng(seed)
    a = _wide(rng, (cores, tm, tk), dtype)
    b = _wide(rng, (cores, tk, tn), dtype)
    bt = _wide(rng, (cores, tn, tk), dtype)
    c = _wide(rng, (cores, tm, tn), dtype)
    product = np.empty((cores, tm, tn), dtype)
    np.matmul(a, b, out=product)
    outer = np.empty((cores, tm, tn), dtype)
    np.matmul(a, bt.transpose(0, 2, 1), out=outer)
    summed = c.copy()
    np.add(summed, product, out=summed)
    for i in range(cores):
        assert (a[i] @ b[i]).tobytes() == product[i].tobytes(), f"core {i}"
        assert (a[i] @ bt[i].T).tobytes() == outer[i].tobytes(), f"core {i}"
        assert (c[i] + a[i] @ b[i]).tobytes() == summed[i].tobytes()


def _cyclic(placement_of):
    """Bind / body hooks of a cyclic-shift GEMM under a placement."""

    def bind(machine, a, b):
        bind_cyclic_operands(machine, a, b, placement_of(machine))

    def body(machine):
        cyclic_gemm_body(machine, placement_of(machine))

    return bind, body, "gemm.C"


def _placement(machine):
    return interleave_placement(machine.topology.width)


KERNEL_BODIES = {
    "cannon": _cyclic(lambda m: identity_placement(m.topology.width)),
    "meshgemm": _cyclic(_placement),
    "gemm-t": (
        MeshGEMMTransposed.bind,
        lambda machine: MeshGEMMTransposed.body(machine, _placement(machine)),
        "gemmt.C",
    ),
}


@pytest.mark.parametrize("kernel", sorted(KERNEL_BODIES))
@settings(max_examples=15, deadline=None)
@given(grid=st.integers(1, 4), tm=st.integers(1, 3), tk=st.integers(1, 3),
       tn=st.integers(1, 3), dtype=dtypes, seed=seeds)
@example(grid=4, tm=1, tk=2, tn=3, dtype=np.float64, seed=0)
def test_replayed_body_equals_eager_on_every_core(
    kernel, grid, tm, tk, tn, dtype, seed
):
    """A body captured on one machine and replayed on fresh operands
    leaves on every core the result tile an eager run of those operands
    leaves, Cannon's identity placement included."""
    bind, body, result = KERNEL_BODIES[kernel]
    device = TINY_MESH.submesh(grid, grid)
    rng = np.random.default_rng(seed)
    b_shape = (grid * tn, grid * tk) if kernel == "gemm-t" else (
        grid * tk, grid * tn)

    def operands():
        return _wide(rng, (grid * tm, grid * tk), dtype), _wide(
            rng, b_shape, dtype)

    capture = MeshMachine(device)
    bind(capture, *operands())
    with capture.capture() as program:
        body(capture)
    a, b = operands()
    eager, replayed = MeshMachine(device), MeshMachine(device)
    for machine in (eager, replayed):
        bind(machine, a, b)
    body(eager)
    program.replay(replayed)
    for coord, core in eager.cores.items():
        want = core.load(result)
        got = replayed.cores[coord].load(result)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), f"core {coord} differs"


def _expected_tape(program, kernel) -> int:
    """Steps of a warm tape: one per product, shift, run of tree levels
    and delivery on the slabs, plus GEMM-T's final free.  A phase split
    into more steps lengthens it."""
    products = sum(type(op) is MatmulOp for op in program.ops)
    if kernel is MeshGEMM:
        # Alignment (two shifts), then a product and two shifts per step
        # but the last.
        return 1 if products == 1 else 3 * products
    # A product per step; the B shift and one slab step for the tree
    # levels of every step but the last, whose levels follow its product
    # directly and run in its step; one delivery per step (the roots'
    # local copies and their ``gemmt-place`` flows into the ``gemmt.C``
    # slab); and the final free of ``gemmt.P``.
    return products + 2 * (products - 1) + products + 1


def _eager_tiles(kernel, grid, padded, name) -> dict:
    """Each core's result tile after an eager launch of the padded
    operands, as ``MeshOpContext(compiled=False)`` runs it."""
    machine = MeshMachine(TINY_MESH.submesh(grid, grid))
    kernel.run(machine, *padded)
    return {coord: core.load(name) for coord, core in machine.cores.items()}


def _padded(grid, *operands):
    """The operands zero-padded to the grid, as ``MeshOpContext`` pads."""
    return tuple(np.pad(x, [(0, -n % grid) for n in x.shape])
                 for x in operands)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("grid", range(1, 9))
@settings(max_examples=6, deadline=None)
@given(rows=st.integers(1, 2), inner=st.integers(1, 2), cols=st.integers(1, 2),
       ragged=st.integers(0, 7), dtype=dtypes, seed=seeds,
       nonfinite=st.booleans())
@example(rows=2, inner=2, cols=2, ragged=0, dtype=np.float64, seed=0,
         nonfinite=True)
def test_warm_gemm_and_gemm_t_equal_eager_on_every_core(
    grid, rows, inner, cols, ragged, dtype, seed, nonfinite
):
    """A warm MeshGEMM and dist-GEMM-T launch return the eager result bit
    for bit and leave on every core, not just where a row of the result
    is read, the eager run's ``gemm.C`` / ``gemmt.C``.  Lengths off the
    grid (``ragged``) go through the padded operands.  The warm tapes
    run every product, shift, tree level and delivery on the slabs.
    With ``nonfinite`` the operands hold infinities and NaNs of both
    signs, and bits match outside NaN, with NaN at the same places
    (``tests/bits.py``)."""
    m = grid * rows + ragged % grid
    k = grid * inner + (ragged // 2) % grid
    n = grid * cols + (ragged // 4) % grid
    ops = MeshOpContext(grid=grid)
    eager = MeshOpContext(grid=grid, compiled=False)
    rng = np.random.default_rng(seed)
    for launch in range(3):  # the capture, then two warm launches
        a, b, keys = (_wide(rng, shape, dtype)
                      for shape in ((m, k), (k, n), (n, k)))
        if nonfinite:
            a, b, keys = (with_nonfinite(seed + launch, x, 0.1)
                          for x in (a, b, keys))
        assert_same_bits(ops.gemm(a, b), eager.gemm(a, b), nonfinite)
        assert_same_bits(ops.gemm_t(a, keys), eager.gemm_t(a, keys),
                         nonfinite)
        for kernel, rhs, result in ((MeshGEMM, b, "gemm.C"),
                                    (MeshGEMMTransposed, keys, "gemmt.C")):
            padded = _padded(grid, a, rhs)
            want = _eager_tiles(kernel, grid, padded, result)
            entry = ops._resident[ops._shape_key(kernel, *padded)]
            machine = entry["machine"]
            for coord, core in machine.cores.items():
                assert_same_bits(core.load(result), want[coord], nonfinite,
                                 coord)
                if launch:
                    for name in kernel.operand_names:
                        assert core.load(name).base is machine._slabs[name][0]
            if launch:
                program = entry["program"]
                assert len(machine._tapes[program]) == _expected_tape(
                    program, kernel)


def _launchers(ops, kernel):
    """The kernel's launch on ``ops`` and on a fresh eager context."""
    eager = MeshOpContext(grid=ops.grid, compiled=False)
    if kernel is MeshGEMM:
        return ops.gemm, eager.gemm
    return ops.gemm_t, eager.gemm_t


@pytest.mark.parametrize("kernel", [MeshGEMM, MeshGEMMTransposed],
                         ids=["gemm", "gemm_t"])
def test_replaced_operand_tile_is_caught_and_recaptured(kernel):
    """A foreign operand tile stored on one core of a warm machine fails
    the next launch: it evicts the machine, and the one after recaptures
    on a new machine.  A foreign result tile is not a fault: MeshGEMM's
    first step lands the core's ``gemm.C`` slab row over it again."""
    rng = np.random.default_rng(12)
    ops = MeshOpContext(grid=4)
    launch, eager_launch = _launchers(ops, kernel)
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 12) if kernel is MeshGEMM else (12, 8))
    for _ in range(2):  # capture, then one warm launch
        assert np.array_equal(launch(a, b), eager_launch(a, b))
    key = ops._shape_key(kernel, a, b)
    entry = ops._resident[key]
    machine = entry["machine"]
    if kernel is MeshGEMM:
        core = machine.core((2, 1))
        core.store("gemm.C", np.full((2, 3), 7.0), exclusive=True)
        assert np.array_equal(launch(a, b), eager_launch(a, b))
        assert ops._resident[key] is entry
        assert core.load("gemm.C").base is machine._slabs["gemm.C"][0]
    name = kernel.operand_names[0]
    core = machine.core((1, 2))
    core.store(name, core.load(name).copy())
    with pytest.raises(ProgramReplayError, match="slab view"):
        launch(a, b)
    assert key not in ops._resident
    a = rng.standard_normal(a.shape)
    assert np.array_equal(launch(a, b), eager_launch(a, b))
    assert ops._resident[key]["machine"] is not machine


@pytest.mark.parametrize("grid", [3, 4])
def test_weight_changed_in_place_between_prefills_matches_eager(grid):
    """Warm GEMM binds copy each weight from the live array on every
    launch, an off-grid one (grid 3) as much as an aligned one."""
    weights = synthesize_weights(TINY_GQA, seed=4)
    compiled = WaferTransformer(weights, ops=MeshOpContext(grid=grid))
    eager = WaferTransformer(
        weights, ops=MeshOpContext(grid=grid, compiled=False)
    )
    prompt = np.random.default_rng(13).integers(0, TINY_GQA.vocab_size, 6)
    layer = weights.layers[0]
    for scale in (1.0, 1.5, 0.5):
        layer.wq *= scale
        layer.w_down *= scale
        logits = []
        for model in (compiled, eager):
            model.reset()
            logits.append(model.prefill(prompt))
        assert np.array_equal(*logits)
