"""Compiled execution: capture/replay and copy elision.

The differential sweep at the heart of this file holds the compiled
layer to one standard: a replayed (or cached) run must be
**bit-exact** with the eager reference and leave behind a trace the
sanitizer and the plan reconciler accept unchanged — on a clean fabric
and on a remapped/degraded one.
"""

import numpy as np
import pytest

from repro.analysis.sanitize import policy_for_machine, sanitize_trace
from repro.collectives.allreduce import pipeline_reduce
from repro.core.device_presets import TINY_MESH
from repro.errors import SimulationError
from repro.gemm.base import GemmShape
from repro.gemm.gemm_t import MeshGEMMTransposed
from repro.gemm.meshgemm import MeshGEMM
from repro.gemv.base import GemvShape
from repro.gemv.meshgemv import MeshGEMV
from repro.llm.checkpoint import synthesize_weights
from repro.llm.config import TINY_MHA
from repro.llm.distributed import WaferTransformer
from repro.llm.mesh_ops import MeshOpContext
from repro.mesh.fabric import Flow
from repro.mesh.machine import MeshMachine
from repro.mesh.program import AbsorbOp, CommOp, ProgramReplayError
from repro.mesh.reconcile import reconcile
from repro.mesh.remap import DefectMap, normalize_link

GRID = 4
DIM = 8  # divisible by GRID; 2x2 tiles


def _clean_machine() -> MeshMachine:
    return MeshMachine(TINY_MESH.submesh(GRID, GRID))


def _defective_machine() -> MeshMachine:
    """A 5x5 physical fabric remapped down to the 4x4 logical grid."""
    defects = DefectMap(
        GRID + 1, GRID + 1,
        dead_cores=frozenset({(2, 2)}),
        dead_links=frozenset({normalize_link((0, 1), (1, 1))}),
        degraded_links={normalize_link((3, 0), (3, 1)): 0.5},
    )
    return MeshMachine(
        TINY_MESH.submesh(GRID + 1, GRID + 1),
        defects=defects,
        logical_shape=(GRID, GRID),
    )


def _operands(rng, kernel):
    if kernel is MeshGEMV:
        return (rng.integers(-4, 5, size=(1, DIM)).astype(np.float64),
                rng.integers(-4, 5, size=(DIM, DIM)).astype(np.float64))
    return (rng.integers(-4, 5, size=(DIM, DIM)).astype(np.float64),
            rng.integers(-4, 5, size=(DIM, DIM)).astype(np.float64))


KERNELS = [MeshGEMM, MeshGEMV, MeshGEMMTransposed]


def _trace_signature(trace):
    """Everything observable about a trace, for structural comparison."""
    return (
        trace.comms,
        trace.computes,
        trace.barriers,
        trace._scopes,
        trace._next_seq,
        trace._next_group,
        trace.peak_memory_bytes,
        trace.core_peak_bytes,
    )


# ---------------------------------------------------------------------------
# Differential sweep: replayed == captured == eager, trace and all
# ---------------------------------------------------------------------------
class TestCaptureReplayDifferential:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("make_machine",
                             [_clean_machine, _defective_machine],
                             ids=["clean", "remapped"])
    def test_bit_exact_and_trace_identical(self, rng, kernel, make_machine):
        a, b = _operands(rng, kernel)
        eager = make_machine()
        expected = kernel.run(eager, a, b)

        captured_machine = make_machine()
        captured, program = kernel.capture_run(captured_machine, a, b)
        assert np.array_equal(captured, expected)

        a2, b2 = _operands(rng, kernel)
        expected2 = kernel.run(make_machine(), a2, b2)
        replay_machine = make_machine()
        replayed = kernel.replay_run(replay_machine, program, a2, b2)
        assert np.array_equal(replayed, expected2)

        reference = make_machine()
        kernel.run(reference, a2, b2)
        assert _trace_signature(replay_machine.trace) == _trace_signature(
            reference.trace
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_replayed_trace_passes_sanitizer(self, rng, kernel):
        a, b = _operands(rng, kernel)
        machine = _clean_machine()
        _, program = kernel.capture_run(machine, a, b)
        replay_machine = _clean_machine()
        kernel.replay_run(replay_machine, program, a, b)
        report = sanitize_trace(
            replay_machine.trace,
            policy_for_machine(replay_machine),
            subject=f"replay:{kernel.name}",
        )
        assert not report.findings, [f.message for f in report.findings]

    @pytest.mark.parametrize(
        "kernel, plan",
        [
            (MeshGEMM, lambda: MeshGEMM.plan(GemmShape.square(DIM, 8), GRID)),
            (MeshGEMV, lambda: MeshGEMV.plan(GemvShape.square(DIM, 8), GRID)),
        ],
    )
    def test_replayed_trace_reconciles_with_plan(self, rng, kernel, plan):
        a, b = _operands(rng, kernel)
        _, program = kernel.capture_run(_clean_machine(), a, b)
        replay_machine = _clean_machine()
        kernel.replay_run(replay_machine, program, a, b)
        report = reconcile(plan(), replay_machine.trace,
                           replay_machine.device, name=kernel.name)
        assert report.ok, report.render()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_defects_invalidate_clean_programs(self, rng, kernel):
        """A program captured on a clean fabric must not replay on a
        remapped one (routes, hops, and bandwidth factors all lie)."""
        a, b = _operands(rng, kernel)
        _, program = kernel.capture_run(_clean_machine(), a, b)
        degraded = _defective_machine()
        assert not program.compatible(degraded)
        with pytest.raises(ProgramReplayError):
            kernel.replay_run(degraded, program, a, b)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_shape_change_rejected(self, rng, kernel):
        a, b = _operands(rng, kernel)
        _, program = kernel.capture_run(_clean_machine(), a, b)
        # Twice the output columns: operands a live run would accept.
        wide = np.concatenate(
            [b, b], axis=0 if kernel is MeshGEMMTransposed else 1
        )
        kernel.run(_clean_machine(), a, wide)
        with pytest.raises(ProgramReplayError, match="cannot replay"):
            kernel.replay_run(_clean_machine(), program, a, wide)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("entry", ["replay", "bind_tape"])
    def test_tape_rejects_drifted_tiles(self, rng, kernel, entry):
        """Below ``replay_run``'s operand-shape check, the tape checks
        each flow's payload bytes and each compute's MACs itself: tiles
        of another shape bound straight onto the machine fail loudly,
        and the failed replay lands nothing on the trace."""
        a, b = _operands(rng, kernel)
        _, program = kernel.capture_run(_clean_machine(), a, b)
        wide = np.concatenate(
            [b, b], axis=0 if kernel is MeshGEMMTransposed else 1
        )
        machine, bound_only = _clean_machine(), _clean_machine()
        kernel.bind(machine, a, wide)
        kernel.bind(bound_only, a, wide)
        with pytest.raises(SimulationError, match="shapes changed"):
            if entry == "replay":
                program.replay(machine)
            else:
                program.bind_tape(machine)()
        assert _trace_signature(machine.trace) == _trace_signature(
            bound_only.trace
        )


def test_chain_through_a_shared_core_replays_like_eager(rng):
    """Two pipeline lines sharing a core (``[[a, b], [b, c]]``): in the
    one stage, ``b`` both sends its value to ``c`` and accumulates
    ``a``'s.  The pair replays as delivery then absorb (a payload read
    after its own combine would be wrong), and the replay equals the
    eager run bit for bit on every core."""
    lines = [[(0, 1), (1, 1)], [(1, 1), (2, 1)]]
    coords = [(0, 1), (1, 1), (2, 1)]

    def bound(values):
        machine = _clean_machine()
        for coord, value in zip(coords, values):
            machine.place("v", coord, value)
        return machine

    capture = bound([rng.standard_normal(3) for _ in coords])
    with capture.capture() as program:
        pipeline_reduce(capture, lines, "v")
    [(comm, absorb)] = [
        (op, nxt) for op, nxt in zip(program.ops, program.ops[1:])
        if type(op) is CommOp and type(nxt) is AbsorbOp
    ]
    values = [rng.standard_normal(3) * 10.0 ** rng.integers(-6, 7, 3)
              for _ in coords]
    eager, replayed = bound(values), bound(values)
    pipeline_reduce(eager, lines, "v")
    program.replay(replayed)
    for coord in coords:
        want = eager.core(coord).load("v")
        assert replayed.core(coord).load("v").tobytes() == want.tobytes()
    assert np.array_equal(eager.core((2, 1)).load("v"), values[1] + values[2])
    assert _trace_signature(replayed.trace) == _trace_signature(eager.trace)


# ---------------------------------------------------------------------------
# Compiled MeshOpContext: decode/attention path end to end
# ---------------------------------------------------------------------------
class TestCompiledOpsContext:
    def test_program_cache_reused_across_model_instances(self):
        weights = synthesize_weights(TINY_MHA, seed=42)
        ops = MeshOpContext()
        prompt = np.array([2, 7, 1, 5])
        first = WaferTransformer(weights, ops=ops)
        first.prefill(prompt)
        first.decode_step(3)
        stats = ops.program_cache_stats()
        assert stats["programs"] >= 1
        # A second model over the same weights and shapes replays the
        # cached programs — not a single new capture.
        second = WaferTransformer(weights, ops=ops)
        second.prefill(prompt)
        second.decode_step(3)
        assert ops.program_cache_stats() == stats

    def test_weight_stationary_gemv_multi_token(self, rng):
        weights = rng.standard_normal((DIM, DIM)).astype(np.float64)
        eager = MeshOpContext(grid=GRID, compiled=False)
        compiled = MeshOpContext(grid=GRID)
        for _ in range(5):
            vec = rng.standard_normal(DIM).astype(np.float64)
            assert np.array_equal(
                compiled.gemv(vec, weights), eager.gemv(vec, weights)
            )

    def test_weight_mutated_in_place_is_rebound(self, rng):
        # Unaligned, so every launch pads a fresh copy of the weight: a
        # warm launch must bind that copy, not one made earlier.
        weights = rng.standard_normal((6, 10))
        eager = MeshOpContext(grid=GRID, compiled=False)
        compiled = MeshOpContext(grid=GRID)
        vec = rng.standard_normal(6)
        for _ in range(2):
            compiled.gemv(vec, weights)
        weights *= 2
        assert np.array_equal(
            compiled.gemv(vec, weights), eager.gemv(vec, weights)
        )

    def test_reset_trace_forbidden_inside_capture(self):
        machine = _clean_machine()
        with pytest.raises(SimulationError):
            with machine.capture():
                machine.reset_trace()


# ---------------------------------------------------------------------------
# Multicast delivery: copy elision must never alias receivers
# ---------------------------------------------------------------------------
class TestMulticastIsolation:
    def test_receivers_never_alias(self):
        machine = _clean_machine()
        src = (0, 0)
        dsts = [(1, 0), (2, 0), (3, 0)]
        payload = np.arange(4.0)
        machine.place("t", src, payload)
        machine.communicate(
            "bcast", [Flow.multicast(src, dsts, "t", "t.in")]
        )
        tiles = [machine.core(d).load("t.in") for d in dsts]
        tiles[0][:] = -1.0  # in-place mutation on one receiver
        assert np.array_equal(tiles[1], np.arange(4.0))
        assert np.array_equal(tiles[2], np.arange(4.0))
        assert np.array_equal(machine.core(src).load("t"), np.arange(4.0))
        assert not np.shares_memory(tiles[0], payload)

    def test_shift_elision_transfers_ownership_once(self):
        """A permutation whose sources are overwritten in-phase may move
        buffers instead of copying, but only to the *first* destination
        and only for exclusively owned tiles."""
        machine = _clean_machine()
        coords = [(x, 0) for x in range(GRID)]
        for i, c in enumerate(coords):
            machine.place("ring", c, np.full(2, float(i)))
        # place() stores host views (non-exclusive): the first shift
        # must copy.  Deliveries store exclusively, so the second
        # shift's sources are elision-eligible.
        for step in range(2):
            flows = [
                Flow.unicast(coords[i], coords[(i + 1) % GRID],
                             "ring", "ring")
                for i in range(GRID)
            ]
            machine.communicate(f"shift-{step}", flows)
        values = [machine.core(c).load("ring") for c in coords]
        for i, c in enumerate(coords):
            assert np.array_equal(values[i], np.full(2, float((i - 2) % GRID)))
        # Mutating one core's buffer must not leak to any other.
        values[0][:] = 99.0
        for other in values[1:]:
            assert not np.array_equal(other, np.full(2, 99.0))

    def test_multicast_with_self_delivery_keeps_source_intact(self):
        machine = _clean_machine()
        src = (1, 1)
        machine.place("t", src, np.arange(3.0))
        machine.communicate(
            "fan", [Flow.multicast(src, [(1, 2), (1, 3)], "t", "t.in")]
        )
        a = machine.core((1, 2)).load("t.in")
        b = machine.core((1, 3)).load("t.in")
        assert not np.shares_memory(a, b)
