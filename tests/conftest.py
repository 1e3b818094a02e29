"""Shared fixtures for the test suite, plus the slow-test gate.

Setting ``MAX_TEST_SECONDS`` (CI does: 60) fails the session if any
single test's call phase exceeds it — runaway tests surface as a hard
failure instead of silently eroding the suite's turnaround time.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.device_presets import TINY_MESH, WSE2
from repro.gemv.base import scatter_gemv_operands
from repro.mesh.machine import MeshMachine
from repro.mesh.program import ProgramReplayError

_MAX_TEST_SECONDS = float(os.environ.get("MAX_TEST_SECONDS", "0") or 0)
_slow_tests: list[tuple[str, float]] = []


def pytest_runtest_logreport(report):
    if (
        _MAX_TEST_SECONDS > 0
        and report.when == "call"
        and report.duration > _MAX_TEST_SECONDS
    ):
        _slow_tests.append((report.nodeid, report.duration))


def pytest_sessionfinish(session, exitstatus):
    if _slow_tests:
        lines = "\n".join(
            f"  {nodeid}: {duration:.1f}s" for nodeid, duration in _slow_tests
        )
        print(
            f"\nERROR: tests exceeded MAX_TEST_SECONDS="
            f"{_MAX_TEST_SECONDS:g}:\n{lines}"
        )
        session.exitstatus = 1


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for test data."""
    return np.random.default_rng(1234)


@pytest.fixture
def assert_slab_bound():
    """Check a warm GEMV machine's bound tiles against the slab contract.

    ``check(machine, vec, mat)``: every core's ``gemv.a`` / ``gemv.B``
    is a C-contiguous view of the machine's slab for it, equal to what
    :func:`scatter_gemv_operands` places for ``vec`` / ``mat``, never
    exclusively owned; and each core's residency is the scatter's plus
    its ``gemv.c``.
    """

    def check(machine: MeshMachine, vec: np.ndarray, mat: np.ndarray) -> None:
        reference = MeshMachine(machine.device)
        scatter_gemv_operands(reference, vec, mat)
        for coord, core in machine.cores.items():
            for name in ("gemv.a", "gemv.B"):
                tile = core.load(name)
                assert tile.base is machine._slabs[name][0]
                assert tile.flags.c_contiguous
                assert np.array_equal(tile, reference.cores[coord].load(name))
                assert not core.is_exclusive(name)
            assert core.resident_bytes == (
                reference.cores[coord].resident_bytes
                + core.load("gemv.c").nbytes
            )

    return check


@pytest.fixture
def assert_refused():
    """Check that a captured program refuses to replay on a machine.

    ``check(program, machine)``: :meth:`MeshProgram.replay` and
    :meth:`MeshProgram.bind_tape` both raise :class:`ProgramReplayError`
    naming an op that runs on no slab, before any step runs: the
    machine's trace, step and every core's tiles (the same objects)
    are as they were.
    """

    def check(program, machine: MeshMachine) -> None:
        def trace_state():
            trace = machine.trace
            return (list(trace.comms), list(trace.computes),
                    list(trace.barriers), list(trace._scopes),
                    trace._next_seq, trace._next_group,
                    dict(trace.core_peak_bytes), machine.step)

        def tiles():
            return {(coord, name): tile
                    for coord, core in machine.cores.items()
                    for name, tile in core._tiles.items()}

        trace_before, tiles_before = trace_state(), tiles()
        for entry in (program.replay, program.bind_tape):
            with pytest.raises(ProgramReplayError,
                               match="does not run on slabs"):
                entry(machine)
            assert trace_state() == trace_before
            tiles_after = tiles()
            assert tiles_after.keys() == tiles_before.keys()
            assert all(tiles_after[key] is tile
                       for key, tile in tiles_before.items())
        assert program not in machine._tapes

    return check


@pytest.fixture
def mesh4() -> MeshMachine:
    """A 4x4 functional mesh machine with memory enforcement."""
    return MeshMachine(TINY_MESH.submesh(4, 4))


@pytest.fixture
def mesh5() -> MeshMachine:
    """A 5x5 functional mesh machine (odd side exercises INTERLEAVE)."""
    return MeshMachine(TINY_MESH.submesh(5, 5))


@pytest.fixture
def wse2_750():
    """The 750x750 WSE-2 sub-mesh used for kernel estimates."""
    return WSE2.submesh(750)
