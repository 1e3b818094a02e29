"""Prebound decode launches: in-place operand rebinding, the structured
GEMV partial (``MeshMachine.matvec``) and split-free line reductions.

The fast paths must stay bit-identical to the eager oracle, keep its
memory accounting (also under enforcement), and fail loudly when their
assumptions break.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.device_presets import TINY_MESH
from repro.errors import MemoryCapacityError, ShapeError
from repro.gemv.base import local_partial_gemv, scatter_gemv_operands
from repro.gemv.meshgemv import MeshGEMV
from repro.llm.checkpoint import synthesize_weights
from repro.llm.config import TINY_GQA
from repro.llm.distributed import WaferTransformer
from repro.llm.mesh_ops import _LINE_REDUCE, MeshOpContext
from repro.mesh.core_sim import Core
from repro.mesh.machine import MeshMachine
from repro.mesh.program import ProgramReplayError

GRID = 4


def _generate(model: WaferTransformer, prompt, steps: int):
    model.reset()
    logits = [model.prefill(prompt)]
    token = int(np.argmax(logits[-1][-1]))
    for _ in range(steps):
        logits.append(model.decode_step(token))
        token = int(np.argmax(logits[-1]))
    return logits


def _memory_summary(ops: MeshOpContext):
    return [
        (label, trace.peak_memory_bytes, dict(trace.core_peak_bytes))
        for label, trace in ops.traces
    ]


def _locals(ops: MeshOpContext, values: np.ndarray, op: str) -> list:
    """The per-core line-reduction locals of ``values``."""
    out = np.empty(ops.grid)
    ops._reduce_into(values, op, out)
    return out.tolist()


def _kv_views(rng, tokens: int = 16):
    """A decode-layout cache ``(tokens, kv_heads, head_dim)`` and a query."""
    cfg = TINY_GQA
    cache = rng.standard_normal((tokens, cfg.n_kv_heads, cfg.head_dim))
    return cache, rng.standard_normal(tokens)


# ---------------------------------------------------------------------------
# Rebinding under memory enforcement
# ---------------------------------------------------------------------------
def _enforced(device=TINY_MESH, compiled=True):
    weights = synthesize_weights(TINY_GQA, seed=3)
    ops = MeshOpContext(device=device, enforce_memory=True, compiled=compiled)
    return WaferTransformer(weights, ops=ops)


def test_rebinding_keeps_memory_accounting_under_enforcement():
    prompt = np.random.default_rng(5).integers(0, TINY_GQA.vocab_size, 5)
    compiled = _enforced()
    eager = _enforced(compiled=False)
    got = _generate(compiled, prompt, steps=12)
    want = _generate(eager, prompt, steps=12)
    for step, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), f"logits differ at step {step}"
    assert _memory_summary(compiled.ops) == _memory_summary(eager.ops)


def test_capacity_overflow_raises_on_the_same_launch():
    prompt = np.random.default_rng(5).integers(0, TINY_GQA.vocab_size, 4)
    steps = TINY_GQA.max_seq_len - len(prompt)
    probe = _enforced(compiled=False)
    _generate(probe, prompt, steps)
    labels = [label for label, _trace in probe.ops.traces]
    peaks = [trace.peak_memory_bytes for _label, trace in probe.ops.traces]
    # A capacity the whole prefill fits under but a decode launch does
    # not: both modes run the prefill and then rebound warm decode
    # launches (layer 1 reuses layer 0's shape machines) first.
    prefill = labels.index("meshgemv")
    capacity = max(peaks[:prefill])
    failing = next(i for i, peak in enumerate(peaks) if peak > capacity)
    assert failing > prefill
    small = dataclasses.replace(TINY_MESH, core_memory_bytes=capacity)
    for compiled in (True, False):
        model = _enforced(device=small, compiled=compiled)
        with pytest.raises(MemoryCapacityError):
            _generate(model, prompt, steps)
        assert model.ops.total_kernels() == failing


# ---------------------------------------------------------------------------
# The new fast paths fail loudly
# ---------------------------------------------------------------------------
def test_matvec_replay_rejects_changed_tile_shapes():
    rng = np.random.default_rng(1)
    _, program = MeshGEMV.capture_run(
        MeshMachine(TINY_MESH.submesh(GRID, GRID)),
        rng.standard_normal(16), rng.standard_normal((16, 16)),
    )
    fresh = MeshMachine(TINY_MESH.submesh(GRID, GRID))
    scatter_gemv_operands(fresh, rng.standard_normal(16),
                          rng.standard_normal((16, 32)))
    with pytest.raises(ProgramReplayError, match="gemv-partial"):
        program.replay(fresh)


def test_matvec_records_what_the_closure_recorded():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal(16), rng.standard_normal((16, 8))
    structured = MeshMachine(TINY_MESH.submesh(GRID, GRID))
    scatter_gemv_operands(structured, a, b)
    local_partial_gemv(structured)

    def partial(core: Core) -> float:
        mat = core.load("gemv.B")
        core.store("gemv.c", core.load("gemv.a") @ mat)
        return float(mat.shape[0] * mat.shape[1])

    closure = MeshMachine(TINY_MESH.submesh(GRID, GRID))
    scatter_gemv_operands(closure, a, b)
    with closure.phase("gemv-partial"):
        closure.compute_all("gemv-partial", partial,
                            reads=("gemv.a", "gemv.B"), writes=("gemv.c",))
    assert structured.trace.computes == closure.trace.computes
    assert structured.trace.core_peak_bytes == closure.trace.core_peak_bytes
    for coord, core in structured.cores.items():
        assert np.array_equal(core.load("gemv.c"),
                              closure.cores[coord].load("gemv.c"))


def test_line_reduce_locals_match_array_split():
    """Cached bounds equal ``np.array_split``'s for every length from 0
    to ``4 * grid + 3``; each local equals ``np.sum`` / ``np.max`` of its
    chunk bit for bit, and an empty chunk gives ``0.0`` / ``-inf``."""
    rng = np.random.default_rng(7)
    ops = MeshOpContext(grid=GRID)
    for n in range(4 * GRID + 4):
        values = rng.standard_normal(n) * 1e3
        chunks = np.array_split(values, GRID)
        bounds = ops._split_bounds(n)
        assert [hi - lo for lo, hi in bounds] == [c.size for c in chunks]
        for (lo, hi), chunk in zip(bounds, chunks):
            assert np.array_equal(values[lo:hi], chunk)
        sums = [float(np.sum(c)) if c.size else 0.0 for c in chunks]
        maxes = [float(np.max(c)) if c.size else -np.inf for c in chunks]
        assert _locals(ops, values, "add") == sums
        assert _locals(ops, values, "max") == maxes
    # Fewer values than cores, warm and eager alike.
    for compiled in (True, False):
        ctx = MeshOpContext(grid=GRID, compiled=compiled)
        for _ in range(2):
            assert ctx.reduce_sum(np.array([1.5])) == 1.5
            assert ctx.reduce_max(np.array([-4.0, -2.0])) == -2.0


_line_values = st.lists(
    st.one_of(
        st.floats(width=64),
        st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
    ),
    min_size=1, max_size=40,
)


@pytest.mark.parametrize("grid", range(1, 9))
@settings(max_examples=25, deadline=None)
@given(launches=st.lists(_line_values, min_size=2, max_size=4))
def test_warm_line_reduce_matches_eager(grid, launches):
    """Warm ``reduce_sum`` / ``reduce_max`` equal eager bit for bit, signed
    zeros, infinities and NaNs included, and each warm line-reduce tape
    is one step (none at grid 1): its tree levels run on the ``red.v``
    slab, and a fallback to per-flow steps would lengthen the tape."""
    warm = MeshOpContext(grid=grid)
    eager = MeshOpContext(grid=grid, compiled=False)
    for values in map(np.array, launches):  # the capture, then warm ones
        for reduce in ("reduce_sum", "reduce_max"):
            got = getattr(warm, reduce)(values)
            want = getattr(eager, reduce)(values)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
    for op in ("add", "max"):
        entry = warm._resident[("line-reduce", op)]
        assert len(entry["machine"]._tapes[entry["program"]]) == (grid > 1)
    with pytest.raises(ShapeError):
        warm.reduce_sum(np.ones((2, 2)))


def test_replaced_line_tile_evicts_and_recaptures():
    """A ``red.v`` stored over its slab view on a warm line machine fails
    the next launch's guard; the launch evicts the machine, and the one
    after recaptures and is exact again."""
    values = np.random.default_rng(10).standard_normal(13)
    want = MeshOpContext(grid=GRID, compiled=False).reduce_sum(values)
    ops = MeshOpContext(grid=GRID)
    for _ in range(2):  # capture, then one warm launch
        assert ops.reduce_sum(values) == want
    key = ("line-reduce", "add")
    entry = ops._resident[key]
    core = entry["machine"].core((1, 0))
    core.store("red.v", core.load("red.v").copy())
    with pytest.raises(ProgramReplayError, match="slab view"):
        ops.reduce_sum(values)
    assert key not in ops._resident
    assert ops.reduce_sum(values) == want
    assert ops._resident[key]["machine"] is not entry["machine"]
    assert ops.reduce_sum(values) == want


COMPLEX_CALLS = {
    "reduce_sum": lambda ops: ops.reduce_sum(np.array([1 + 2j, 3])),
    "reduce_max": lambda ops: ops.reduce_max(np.array([1j, 0])),
    "rms_norm": lambda ops: ops.rms_norm(np.full(4, 2j), np.ones(4), 1e-5),
    "rms_norm-weight": lambda ops: ops.rms_norm(
        np.ones(4), np.full(4, 1j), 1e-5),
    "softmax": lambda ops: ops.softmax(np.array([1j, 0])),
    "rms_norm_rows": lambda ops: ops.rms_norm_rows(
        np.full((2, 4), 2j), np.ones(4), 1e-5),
    "softmax_rows": lambda ops: ops.softmax_rows(np.full((2, 3), 1j)),
}


@pytest.mark.parametrize("compiled", [True, False])
@pytest.mark.parametrize("call", sorted(COMPLEX_CALLS))
def test_line_reductions_reject_complex_input(call, compiled):
    """The line reductions run in float64, so complex input raises
    ``ShapeError`` before any launch: nothing is listed and no warm
    machine is evicted.  GEMV and GEMM keep taking complex operands."""
    ops = MeshOpContext(grid=GRID, compiled=compiled)
    ops.softmax(np.arange(5.0))  # warms both line reductions
    resident, listed = dict(ops._resident), len(ops.traces)
    with pytest.raises(ShapeError, match="real"):
        COMPLEX_CALLS[call](ops)
    assert ops._resident == resident
    assert len(ops.traces) == listed
    vec = np.arange(4) * (1 - 1j)
    assert np.allclose(ops.gemv(vec, np.eye(4)), vec)
    assert np.allclose(ops.gemm(np.diag(vec), np.eye(4)), np.diag(vec))


@pytest.mark.parametrize("grid", [1, 3, 4, 5])
def test_line_locals_equal_the_per_chunk_reductions(grid):
    """The reshaped-row locals are the per-chunk ``reduce`` bits,
    including signed zeros, infinities and chunks of unequal length."""
    rng = np.random.default_rng(9)
    ops = MeshOpContext(grid=grid)
    for n in range(1, 70):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        values[rng.integers(0, n, 2)] = -0.0
        if n % 7 == 0:
            values[rng.integers(0, n)] = np.inf
        for op, (reduce, identity) in _LINE_REDUCE.items():
            want = [reduce(values[lo:hi]) if hi > lo else identity
                    for lo, hi in ops._split_bounds(n)]
            got = _locals(ops, values, op)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_warm_rebinding_rejects_misshaped_operands():
    rng = np.random.default_rng(4)
    ops = MeshOpContext(grid=GRID)
    cache, probs = _kv_views(rng)
    view = cache[:, 0, :]
    want = MeshOpContext(grid=GRID, compiled=False).gemv(probs, view)
    assert np.array_equal(ops.gemv(probs, view), want)
    key = ops._shape_key(MeshGEMV, probs, view)
    bind = ops._resident[key]["bind"]
    with pytest.raises(ShapeError):
        bind(probs[:8], view)
    with pytest.raises(ShapeError):
        bind(probs, np.zeros((16, 8)))
    with pytest.raises(ShapeError):
        bind(probs.astype(np.float32), view)
    # A failed warm launch evicts its machine; the next one recaptures
    # and stays exact.
    with pytest.raises(ShapeError):
        ops._rebind_replay(key, ops._resident[key], probs[:8], view)
    assert key not in ops._resident
    assert np.array_equal(ops.gemv(probs, view), want)


def test_rebinding_places_the_scatter_views(assert_slab_bound):
    rng = np.random.default_rng(6)
    ops = MeshOpContext(grid=GRID)
    cache, probs = _kv_views(rng)
    ops.gemv(probs, cache[:, 0, :])
    view = cache[:, 1, :]
    ops.gemv(probs, view)  # warm: writes the slabs in place
    machine = ops._resident[ops._shape_key(MeshGEMV, probs, view)]["machine"]
    assert_slab_bound(machine, probs, view)


def test_replaced_slab_tile_evicts_and_recaptures():
    """A ``gemv.B`` stored over its slab view on a warm machine fails the
    next launch's compiled partial; the launch evicts the machine, and
    the one after recaptures and is exact again."""
    rng = np.random.default_rng(8)
    ops = MeshOpContext(grid=GRID)
    eager = MeshOpContext(grid=GRID, compiled=False)
    vec, weights = rng.standard_normal(16), rng.standard_normal((16, 8))
    want = eager.gemv(vec, weights)
    for _ in range(2):  # capture, then one warm launch
        assert np.array_equal(ops.gemv(vec, weights), want)
    key = ops._shape_key(MeshGEMV, vec, weights)
    entry = ops._resident[key]
    core = entry["machine"].core((1, 2))
    core.store("gemv.B", core.load("gemv.B").copy())
    with pytest.raises(ProgramReplayError, match="slab view"):
        ops.gemv(vec, weights)
    assert key not in ops._resident
    assert np.array_equal(ops.gemv(vec, weights), want)
    recaptured = ops._resident[key]
    assert recaptured["machine"] is not entry["machine"]
    assert recaptured["program"].record.computes == entry["program"].record.computes
    assert recaptured["program"].record.comms == entry["program"].record.comms
    assert np.array_equal(ops.gemv(vec, weights), want)


def test_replaced_accumulator_is_relanded_as_its_slab_row():
    """A fresh ``gemv.c`` stored on a warm machine between launches is
    not a fault: the next launch's partial lands the core's slab row over
    it again, and its K-tree levels reduce on the slab as before.  A
    replaced operand view still fails the launch: it evicts the machine,
    and the one after recaptures."""
    rng = np.random.default_rng(9)
    ops = MeshOpContext(grid=GRID)
    eager = MeshOpContext(grid=GRID, compiled=False)
    vec, weights = rng.standard_normal(16), rng.standard_normal((16, 8))
    for _ in range(2):  # capture, then one warm launch
        assert np.array_equal(ops.gemv(vec, weights), eager.gemv(vec, weights))
    key = ops._shape_key(MeshGEMV, vec, weights)
    entry = ops._resident[key]
    machine = entry["machine"]
    slab = machine._slabs["gemv.c"][0]
    for coord in ((1, 3), (2, 0)):  # a column root, then a leaf
        core = machine.core(coord)
        core.store("gemv.c", np.full(2, 7.0), exclusive=True)
        vec = rng.standard_normal(16)
        assert np.array_equal(ops.gemv(vec, weights), eager.gemv(vec, weights))
        assert ops._resident[key] is entry
        tile = core.load("gemv.c")
        assert tile.base is slab and not core.is_exclusive("gemv.c")
    core = machine.core((1, 2))
    core.store("gemv.a", core.load("gemv.a").copy())
    with pytest.raises(ProgramReplayError, match="slab view"):
        ops.gemv(vec, weights)
    assert key not in ops._resident
    assert np.array_equal(ops.gemv(vec, weights), eager.gemv(vec, weights))
    assert ops._resident[key]["machine"] is not machine


@pytest.mark.parametrize("shape", [(16, 8), (14, 10)])
def test_weight_changed_in_place_between_launches_matches_eager(shape):
    rng = np.random.default_rng(10)
    ops = MeshOpContext(grid=GRID)
    eager = MeshOpContext(grid=GRID, compiled=False)
    weights = rng.standard_normal(shape)
    vec = rng.standard_normal(shape[0])
    for scale in (1.0, 2.0, -0.5):
        weights *= scale
        assert np.array_equal(ops.gemv(vec, weights), eager.gemv(vec, weights))


@pytest.mark.parametrize("grid", [3, 4])
def test_weight_changed_in_place_between_decode_steps_matches_eager(grid):
    """Layer tapes copy each weight from the live array on every run, an
    off-grid one (grid 3) as much as an aligned one."""
    weights = synthesize_weights(TINY_GQA, seed=4)
    compiled = WaferTransformer(weights, ops=MeshOpContext(grid=grid))
    eager = WaferTransformer(
        weights, ops=MeshOpContext(grid=grid, compiled=False)
    )
    prompt = np.random.default_rng(11).integers(0, TINY_GQA.vocab_size, 5)
    logits = [m.prefill(prompt)[-1] for m in (compiled, eager)]
    assert np.array_equal(*logits)
    layer = weights.layers[0]
    for scale in (1.0, 1.5, 1.0, 0.5):
        layer.wq *= scale
        layer.w_down *= scale
        token = int(np.argmax(logits[0]))
        logits = [m.decode_step(token) for m in (compiled, eager)]
        assert np.array_equal(*logits)
