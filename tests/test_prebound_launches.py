"""Prebound decode launches: in-place operand rebinding, the structured
GEMV partial (``MeshMachine.matvec``) and split-free line reductions.

The fast paths must stay bit-identical to the eager oracle, keep its
memory accounting (also under enforcement), and fail loudly when their
assumptions break.
"""

import dataclasses

import numpy as np
import pytest

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
        assert [t[0] for t in ops._reduce_locals(values, "add")] == sums
        assert [t[0] for t in ops._reduce_locals(values, "max")] == maxes
    # Fewer values than cores, warm and eager alike.
    for compiled in (True, False):
        ctx = MeshOpContext(grid=GRID, compiled=compiled)
        for _ in range(2):
            assert ctx.reduce_sum(np.array([1.5])) == 1.5
            assert ctx.reduce_max(np.array([-4.0, -2.0])) == -2.0


def test_warm_line_reduce_matches_eager():
    rng = np.random.default_rng(3)
    warm = MeshOpContext(grid=GRID)
    eager = MeshOpContext(grid=GRID, compiled=False)
    for n in (1, 3, 7, 16, 33, 64):
        for _ in range(3):
            values = rng.standard_normal(n) * 1e3
            assert warm.reduce_sum(values) == eager.reduce_sum(values)
            assert warm.reduce_max(values) == eager.reduce_max(values)
    with pytest.raises(ShapeError):
        warm.reduce_sum(np.ones((2, 2)))


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
            got = [tile[0] for tile in ops._reduce_locals(values, op)]
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


def test_rebinding_places_the_scatter_views():
    rng = np.random.default_rng(6)
    ops = MeshOpContext(grid=GRID)
    cache, probs = _kv_views(rng)
    ops.gemv(probs, cache[:, 0, :])
    view = cache[:, 1, :]
    ops.gemv(probs, view)  # warm: rebinds in place
    machine = ops._resident[ops._shape_key(MeshGEMV, probs, view)]["machine"]
    reference = MeshMachine(TINY_MESH.submesh(GRID, GRID))
    scatter_gemv_operands(reference, probs, view)
    for coord, core in machine.cores.items():
        for name in ("gemv.a", "gemv.B"):
            got = core.load(name)
            want = reference.cores[coord].load(name)
            assert got.base is want.base
            assert got.strides == want.strides
            assert np.array_equal(got, want)
            assert not core.is_exclusive(name)
        assert core.resident_bytes == reference.cores[coord].resident_bytes + (
            core.load("gemv.c").nbytes
        )
