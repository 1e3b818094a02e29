"""Sealed launch records: one trace per captured program, shared by
every warm launch of it.

A warm :class:`MeshOpContext` launch lists its program's sealed record
instead of building a trace.  That record must be, field by field, the
trace :meth:`MeshProgram.replay` leaves on a fresh machine, and the
trace the eager oracle records for the same launch, for every kind of
launch decode and prefill make.
"""

import numpy as np
import pytest

from repro.gemm.gemm_t import MeshGEMMTransposed
from repro.gemm.meshgemm import MeshGEMM
from repro.gemv.meshgemv import MeshGEMV
from repro.llm.config import TINY_GQA
from repro.llm.mesh_ops import MeshOpContext

GRID = 4
#: A KV length that is not a multiple of the grid, so the attention
#: GEMVs run on padded operands.
KV_LEN = 13


def _kv(rng):
    return rng.standard_normal((KV_LEN, TINY_GQA.n_kv_heads, TINY_GQA.head_dim))


CASES = {
    "weight-gemv": (MeshGEMV, lambda ops, rng: ops.gemv(
        rng.standard_normal(16), np.linspace(-1.0, 1.0, 16 * 24).reshape(16, 24))),
    "score-gemv": (MeshGEMV, lambda ops, rng: ops.gemv(
        rng.standard_normal(TINY_GQA.head_dim), _kv(rng)[:, 0, :].T)),
    "value-gemv": (MeshGEMV, lambda ops, rng: ops.gemv(
        rng.standard_normal(KV_LEN), _kv(rng)[:, 1, :])),
    "gemm": (MeshGEMM, lambda ops, rng: ops.gemm(
        rng.standard_normal((5, 7)), rng.standard_normal((7, 6)))),
    "gemm-t": (MeshGEMMTransposed, lambda ops, rng: ops.gemm_t(
        rng.standard_normal((5, 7)), rng.standard_normal((9, 7)))),
    "reduce-sum": ("add", lambda ops, rng: ops.reduce_sum(
        rng.standard_normal(KV_LEN))),
    "reduce-max": ("max", lambda ops, rng: ops.reduce_max(
        rng.standard_normal(KV_LEN))),
}


def _fields(trace):
    return {
        "scopes": list(trace._scopes),
        "comms": list(trace.comms),
        "computes": list(trace.computes),
        "barriers": list(trace.barriers),
        "colours": {c: set(v) for c, v in trace._colours_per_core.items()},
        "core_peaks": dict(trace.core_peak_bytes),
        "peak_memory_bytes": trace.peak_memory_bytes,
        "next_seq": trace._next_seq,
        "next_group": trace._next_group,
    }


def _fresh_replay(ops, kernel, program):
    """The trace ``MeshProgram.replay`` leaves on a fresh machine."""
    if isinstance(kernel, str):  # a line: one red.v slab row per core
        machine = ops._machine(1)
        machine.slab("red.v", (1,), np.float64)[:] = 0.0
        with machine.quiet_memory():
            machine.place_slab("red.v")
        program.replay(machine)
    else:
        machine = ops._machine(GRID)
        operands = [np.zeros(s) for s in program.meta["operand_shapes"]]
        kernel.replay_run(machine, program, *operands)
    return machine.trace


@pytest.mark.parametrize("case", sorted(CASES))
def test_sealed_record_is_the_fresh_replay_trace(case):
    kernel, launch = CASES[case]
    ops = MeshOpContext(grid=GRID)
    eager = MeshOpContext(grid=GRID, compiled=False)
    for seed in (0, 1):
        got = launch(ops, np.random.default_rng(seed))
        want = launch(eager, np.random.default_rng(seed))
        assert np.array_equal(got, want)
    [entry] = ops._resident.values()
    record = entry["program"].record
    # The warm launch listed the shared record, the capture its own trace.
    assert ops.traces[1][1] is record
    assert ops.traces[0][1] is not record
    assert entry["machine"].trace is not record
    sealed = _fields(record)
    replayed = _fields(_fresh_replay(ops, kernel, entry["program"]))
    oracle = _fields(eager.traces[1][1])
    for name, value in sealed.items():
        assert value == replayed[name], name
        assert value == oracle[name], name


def test_warm_launches_share_one_record_and_leave_the_machine_trace_empty():
    rng = np.random.default_rng(2)
    ops = MeshOpContext(grid=GRID)
    weights = rng.standard_normal((16, 16))
    for _ in range(4):
        ops.gemv(rng.standard_normal(16), weights)
    [entry] = ops._resident.values()
    label, record = entry["launch"]
    assert ops.traces[1:] == [(label, record)] * 3
    assert all(pair is entry["launch"] for pair in ops.traces[1:])
    machine = entry["machine"]
    assert machine.trace is not record
    assert not machine.trace.comms and not machine.trace.computes
    assert ops.total_kernels() == 4
    assert ops.max_paths_per_core() == record.max_paths_per_core
