"""Differential sweep for the batched flow engine.

The engine's contract (DESIGN.md §11): every batched quantity — ingress
contention, port codes, per-flow critical hops — is **bit-exact** with
the eager per-flow reference.  Integer quantities are
exact by construction; floats are exact because ``np.add.at`` applies
its updates in destination order, which is the same order the eager
dict accumulation walks.  The sweep runs the real kernels and
collectives on clean, remapped, and degraded fabrics and compares
record by record; synthetic phases cover the port-serialization
semantics the kernels cannot reach; capture→replay runs the whole
chain through the compiled tape and demands an identical trace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.device_presets import TINY_MESH
from repro.errors import ShapeError
from repro.gemm.gemm_t import MeshGEMMTransposed
from repro.gemm.meshgemm import MeshGEMM
from repro.gemv.meshgemv import MeshGEMV
from repro.collectives.allgather import line_allgather
from repro.collectives.allreduce import broadcast_from_root, ktree_reduce
from repro.llm.mesh_ops import MeshOpContext
from repro.mesh import FlowBatch
from repro.mesh.fabric import Flow
from repro.mesh.flow_engine import PORT_TUPLES, encode_ports, segment_max
from repro.mesh.machine import MeshMachine
from repro.mesh.program import ProgramReplayError
from repro.mesh.reconcile import _scope_ingress_bytes
from repro.mesh.remap import DefectMap, normalize_link
from repro.mesh.trace import CommRecord, FlowRecord, ingress_port

GRID = 4
DIM = 8


def _clean_machine() -> MeshMachine:
    return MeshMachine(TINY_MESH.submesh(GRID, GRID))


def _remapped_machine() -> MeshMachine:
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


def _degraded_machine() -> MeshMachine:
    """Full-size fabric, no remap — only bandwidth-degraded links."""
    defects = DefectMap(
        GRID, GRID,
        degraded_links={
            normalize_link((1, 0), (2, 0)): 0.5,
            normalize_link((0, 2), (0, 3)): 0.25,
        },
    )
    return MeshMachine(
        TINY_MESH.submesh(GRID, GRID),
        defects=defects,
        logical_shape=(GRID, GRID),
    )


MACHINES = [_clean_machine, _remapped_machine, _degraded_machine]
MACHINE_IDS = ["clean", "remapped", "degraded"]
KERNELS = [MeshGEMM, MeshGEMV, MeshGEMMTransposed]


def _operands(rng, kernel):
    if kernel is MeshGEMV:
        return (rng.integers(-4, 5, size=(1, DIM)).astype(np.float64),
                rng.integers(-4, 5, size=(DIM, DIM)).astype(np.float64))
    return (rng.integers(-4, 5, size=(DIM, DIM)).astype(np.float64),
            rng.integers(-4, 5, size=(DIM, DIM)).astype(np.float64))


def _rows(machine):
    width = machine.topology.width
    height = machine.topology.height
    return [[(x, y) for x in range(width)] for y in range(height)]


def _run_allreduce(machine) -> None:
    lines = _rows(machine)
    for line in lines:
        for i, coord in enumerate(line):
            machine.place("ar.v", coord, np.array([float(i + 1), 2.0]))
    roots = ktree_reduce(machine, lines, "ar.v")
    broadcast_from_root(machine, lines, roots, "ar.v")


def _run_allgather(machine) -> None:
    lines = _rows(machine)
    for line in lines:
        for i, coord in enumerate(line):
            machine.place("ag.t", coord, np.array([float(i)]))
    line_allgather(machine, lines, "ag.t", "ag.out")


COLLECTIVES = [_run_allreduce, _run_allgather]
COLLECTIVE_IDS = ["allreduce", "allgather"]


# ---------------------------------------------------------------------------
# Ingress contention: batched == eager, record by record
# ---------------------------------------------------------------------------
class TestIngressDifferential:
    @pytest.mark.parametrize("make_machine", MACHINES, ids=MACHINE_IDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_kernel_records_bit_exact(self, rng, kernel, make_machine):
        machine = make_machine()
        kernel.run(machine, *_operands(rng, kernel))
        comms = machine.trace.comms
        assert comms, "kernel produced no communication phases"
        for rec in comms:
            assert rec.ingress_bottleneck_bytes == (
                rec.ingress_bottleneck_bytes_eager()
            )

    @pytest.mark.parametrize("make_machine", MACHINES, ids=MACHINE_IDS)
    @pytest.mark.parametrize("collective", COLLECTIVES, ids=COLLECTIVE_IDS)
    def test_collective_records_bit_exact(self, collective, make_machine):
        machine = make_machine()
        collective(machine)
        comms = machine.trace.comms
        assert comms
        for rec in comms:
            assert rec.ingress_bottleneck_bytes == (
                rec.ingress_bottleneck_bytes_eager()
            )

    def test_opposite_ports_do_not_serialize(self):
        # Two 100-byte flows entering (1, 1) from east and west use
        # different ingress links: the bottleneck is one flow, not two.
        flows = (
            FlowRecord(src=(0, 1), dsts=((1, 1),), hops=1, nbytes=100),
            FlowRecord(src=(2, 1), dsts=((1, 1),), hops=1, nbytes=100),
        )
        rec = CommRecord(step=0, pattern="p", num_flows=2, max_hops=1,
                         total_hops=2, max_payload_bytes=100,
                         total_payload_bytes=200, flows=flows)
        assert rec.ingress_bottleneck_bytes == 100.0
        assert rec.ingress_bottleneck_bytes_eager() == 100.0

    def test_same_port_serializes(self):
        # Both flows approach (0, 1) from the east: one shared ingress
        # link, so the payloads stack.
        flows = (
            FlowRecord(src=(2, 1), dsts=((0, 1),), hops=2, nbytes=100),
            FlowRecord(src=(3, 1), dsts=((0, 1),), hops=3, nbytes=100),
        )
        rec = CommRecord(step=0, pattern="p", num_flows=2, max_hops=3,
                         total_hops=5, max_payload_bytes=100,
                         total_payload_bytes=200, flows=flows)
        assert rec.ingress_bottleneck_bytes == 200.0
        assert rec.ingress_bottleneck_bytes_eager() == 200.0

    def test_degraded_flow_occupies_ingress_longer(self):
        # A half-rate route doubles the flow's wire bytes in the
        # bottleneck accounting.
        flows = (
            FlowRecord(src=(2, 1), dsts=((0, 1),), hops=2, nbytes=100,
                       bw_factor=0.5),
        )
        rec = CommRecord(step=0, pattern="p", num_flows=1, max_hops=2,
                         total_hops=2, max_payload_bytes=100,
                         total_payload_bytes=100, flows=flows)
        assert rec.ingress_bottleneck_bytes == 200.0
        assert rec.ingress_bottleneck_bytes_eager() == 200.0

    def test_encode_ports_matches_ingress_port_exhaustive(self):
        coords = [(x, y) for x in range(5) for y in range(4)]
        src, dst = [], []
        for s in coords:
            for d in coords:
                if s != d:
                    src.append(s)
                    dst.append(d)
        codes = encode_ports(np.array(src), np.array(dst))
        for s, d, code in zip(src, dst, codes):
            assert PORT_TUPLES[code] == ingress_port(s, d)


# ---------------------------------------------------------------------------
# Record headers: the per-phase criticals the cost model reads == flow batch
# ---------------------------------------------------------------------------
class TestRecordCriticals:
    @pytest.mark.parametrize("make_machine", MACHINES, ids=MACHINE_IDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_header_matches_flow_batch(self, rng, kernel, make_machine):
        machine = make_machine()
        kernel.run(machine, *_operands(rng, kernel))
        comms = machine.trace.comms
        assert comms, "kernel produced no communication phases"
        device = machine.device
        for rec in comms:
            batch = rec.flow_batch()
            assert batch.num_flows == rec.num_flows == len(rec.flows)
            assert int(batch.hops.max()) == rec.max_hops == max(
                f.hops for f in rec.flows
            )
            assert int(batch.hops.sum()) == rec.total_hops
            assert int(batch.nbytes.max()) == rec.max_payload_bytes
            assert int(batch.nbytes.sum()) == rec.total_payload_bytes
            assert float(batch.bw_factor.min()) == rec.min_bw_factor
            assert batch.wire_bytes().tolist() == [
                f.wire_bytes for f in rec.flows
            ]
            stream = (batch.hops * device.hop_cycles + batch.nbytes
                      / (device.link_bytes_per_cycle * batch.bw_factor))
            assert float(stream.max()) == max(
                machine.fabric.stream_cycles(f.hops, f.nbytes, f.bw_factor)
                for f in rec.flows
            )


# ---------------------------------------------------------------------------
# Segment maxima
# ---------------------------------------------------------------------------
class TestSegmentMax:
    def test_segment_max_against_naive(self, rng):
        values = rng.standard_normal(50)
        offsets = np.array([0, 0, 7, 7, 20, 50])  # two empty segments
        got = segment_max(values, offsets, len(offsets), fill=-1.0)
        bounds = list(offsets) + [len(values)]
        for i in range(len(offsets)):
            seg = values[bounds[i]:bounds[i + 1]]
            expected = seg.max() if len(seg) else -1.0
            assert got[i] == expected


# ---------------------------------------------------------------------------
# Gather-scope ingress: per-(dst, port) totals across a whole scope
# ---------------------------------------------------------------------------
class TestScopeIngress:
    @pytest.mark.parametrize("make_machine", MACHINES, ids=MACHINE_IDS)
    def test_allgather_scope_ingress_pinned(self, make_machine):
        """A row end receives its three 8-byte peers on one port: 24."""
        machine = make_machine()
        _run_allgather(machine)
        assert _scope_ingress_bytes(machine.trace.comms) == 24

    def test_fallback_without_flow_detail(self):
        legacy = CommRecord(step=0, pattern="p", num_flows=3, max_hops=2,
                            total_hops=4, max_payload_bytes=64,
                            total_payload_bytes=128)
        comms = [legacy, legacy]
        assert _scope_ingress_bytes(comms) == 128


# ---------------------------------------------------------------------------
# Capture -> compiled replay: superfused phases, identical traces
# ---------------------------------------------------------------------------
def _trace_signature(trace):
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


def _reduce_chain_machine():
    """A machine holding one uniform ``x`` tile per core."""
    machine = MeshMachine(TINY_MESH.submesh(GRID, GRID))
    for y in range(GRID):
        for x in range(GRID):
            machine.place("x", (x, y), np.array([float(x + 1), float(y + 1)]))
    return machine


def _double(core):
    core.store("p", core.load("x") * 2.0)
    return float(core.load("x").size)


def _double_stacked(stacks):
    return {"p": stacks["x"] * 2.0}, float(stacks["x"].shape[1])


def _run_reduce_chain(machine):
    """A stacked compute feeding a 3-stage unicast reduce chain."""
    coords = list(machine.topology.coords())
    with machine.phase("chain", kind="reduce", pipelined=True):
        machine.compute_stacked(
            "double", coords, _double_stacked,
            reads=("x",), writes=("p",), fallback=_double,
        )
        for step, src_x in enumerate((3, 2, 1)):
            flows = [
                Flow.unicast((src_x, y), (0, y), "p", "p.in")
                for y in range(GRID)
            ]
            machine.communicate(f"fold-{step}", flows)
            machine.absorb(
                f"fold-{step}-add",
                [((0, y), "p", "p.in") for y in range(GRID)],
                op="add", reads=("p", "p.in"), writes=("p",),
            )


def _assert_same_run(machine, reference):
    for coord in reference.topology.coords():
        assert np.array_equal(
            machine.core(coord).load("p"), reference.core(coord).load("p")
        )
    assert _trace_signature(machine.trace) == _trace_signature(
        reference.trace
    )


class TestStackedCompute:
    """``MeshMachine.compute_stacked``: one batched call over all cores,
    the per-core fallback, and its replay through ``_run_stacked``."""

    def _expected_roots(self):
        # p = 2x doubled then rows folded into x=0: sum over x of 2(x+1).
        return {
            (0, y): np.array([2.0 * (1 + 2 + 3 + 4), 8.0 * (y + 1)])
            for y in range(GRID)
        }

    def test_live_run_values(self):
        machine = _reduce_chain_machine()
        _run_reduce_chain(machine)
        for coord, want in self._expected_roots().items():
            assert np.array_equal(machine.core(coord).load("p"), want)

    def test_replay_matches_live(self):
        capture_machine = _reduce_chain_machine()
        with capture_machine.capture() as program:
            _run_reduce_chain(capture_machine)

        replay_machine = _reduce_chain_machine()
        program.replay(replay_machine)

        reference = _reduce_chain_machine()
        _run_reduce_chain(reference)
        _assert_same_run(replay_machine, reference)

    def test_replay_reruns_numerics_on_new_operands(self):
        capture_machine = _reduce_chain_machine()
        with capture_machine.capture() as program:
            _run_reduce_chain(capture_machine)

        def shifted():
            machine = _reduce_chain_machine()
            for coord in machine.topology.coords():
                machine.place("x", coord, machine.core(coord).load("x") - 7.5)
            return machine

        replay_machine = shifted()
        program.replay(replay_machine)
        reference = shifted()
        _run_reduce_chain(reference)
        _assert_same_run(replay_machine, reference)
        assert not np.array_equal(
            replay_machine.core((0, 0)).load("p"),
            capture_machine.core((0, 0)).load("p"),
        )

    def test_non_uniform_tiles_run_fallback(self):
        calls = []

        def fallback(core):
            calls.append(core.coord)
            return _double(core)

        machine = _reduce_chain_machine()
        machine.place("x", (2, 1), np.array([5.0, 6.0, 7.0]))
        coords = list(machine.topology.coords())
        machine.compute_stacked(
            "double", coords, _double_stacked,
            reads=("x",), writes=("p",), fallback=fallback,
        )
        assert calls == coords
        for coord in coords:
            assert np.array_equal(
                machine.core(coord).load("p"),
                machine.core(coord).load("x") * 2.0,
            )
        [record] = machine.trace.computes
        assert record.macs == tuple(
            float(machine.core(c).load("x").size) for c in coords
        )

    @pytest.mark.parametrize("drift", ["shape", "dtype", "partial"])
    def test_non_uniform_tiles_without_fallback_raise(self, drift):
        machine = _reduce_chain_machine()
        if drift == "shape":
            machine.place("x", (1, 3), np.zeros(3))
        elif drift == "dtype":
            machine.place("x", (1, 3), np.zeros(2, dtype=np.float32))
        else:
            machine.free("x", [(1, 3)])
        with pytest.raises(ShapeError, match="uniform tile shapes"):
            machine.compute_stacked(
                "double", machine.topology.coords(), _double_stacked,
                reads=("x",), writes=("p",),
            )
        assert not machine.trace.computes

    def test_uniformly_absent_read_is_none(self):
        machine = _reduce_chain_machine()
        seen = {}

        def fn(stacks):
            seen.update(stacks)
            return _double_stacked(stacks)

        machine.compute_stacked(
            "double", machine.topology.coords(), fn,
            reads=("x", "acc"), writes=("p",),
        )
        assert seen["acc"] is None
        assert seen["x"].shape == (GRID * GRID, 2)

    def test_wrong_slice_count_raises(self):
        machine = _reduce_chain_machine()
        with pytest.raises(ShapeError, match="slices"):
            machine.compute_stacked(
                "double", machine.topology.coords(),
                lambda stacks: ({"p": stacks["x"][:3]}, 2.0),
                reads=("x",), writes=("p",),
            )

    def test_no_coords_is_a_no_op(self):
        machine = _reduce_chain_machine()
        machine.compute_stacked("double", [], _double_stacked,
                                reads=("x",), writes=("p",))
        assert not machine.trace.computes

    def test_replay_with_drifted_macs_raises(self):
        coords = list(_reduce_chain_machine().topology.coords())
        capture_machine = _reduce_chain_machine()
        with capture_machine.capture() as program:
            capture_machine.compute_stacked(
                "double", coords, _double_stacked,
                reads=("x",), writes=("p",),
            )
        replay_machine = MeshMachine(TINY_MESH.submesh(GRID, GRID))
        for coord in coords:
            replay_machine.place("x", coord, np.zeros(3))
        with pytest.raises(ProgramReplayError, match="MAC counts"):
            program.replay(replay_machine)


def test_degraded_kernel_capture_replay_bit_exact(rng):
    """A captured kernel replays bit-exact, trace and all, on a fabric
    with degraded links (clean and remapped fabrics: see
    ``tests/test_program_replay.py``)."""
    for kernel in KERNELS:
        a, b = _operands(rng, kernel)
        expected = kernel.run(_degraded_machine(), a, b)
        _, program = kernel.capture_run(_degraded_machine(), a, b)
        replay_machine = _degraded_machine()
        replayed = kernel.replay_run(replay_machine, program, a, b)
        assert np.array_equal(replayed, expected)
        reference = _degraded_machine()
        kernel.run(reference, a, b)
        assert _trace_signature(replay_machine.trace) == _trace_signature(
            reference.trace
        )


# ---------------------------------------------------------------------------
# Repeated-weight decode GEMV on its shape's warm machine
# ---------------------------------------------------------------------------
def _gemv_entries(ops: MeshOpContext):
    return [key for key in ops._resident if key[0] == MeshGEMV.name]


class TestWarmGemv:
    def test_warm_context_bit_exact_multi_token(self, rng):
        weights = rng.integers(-4, 5, size=(DIM, DIM)).astype(np.float64)
        eager = MeshOpContext(grid=GRID, compiled=False)
        warm = MeshOpContext(grid=GRID)
        for _ in range(6):
            vec = rng.integers(-4, 5, size=DIM).astype(np.float64)
            assert np.array_equal(
                warm.gemv(vec, weights), eager.gemv(vec, weights)
            )
        key = MeshOpContext._shape_key(MeshGEMV, vec, weights)
        assert _gemv_entries(warm) == [key]

    def test_launch_places_scatter_identical_tiles(self, rng):
        weights = rng.integers(-4, 5, size=(DIM, DIM)).astype(np.float64)
        warm = MeshOpContext(grid=GRID)
        vec = rng.integers(-4, 5, size=DIM).astype(np.float64)
        warm.gemv(vec, weights)  # capture on the shape's machine
        warm.gemv(vec, weights)  # warm launches rebind in place
        fresh = rng.integers(-4, 5, size=DIM).astype(np.float64)
        warm.gemv(fresh, weights)
        key = MeshOpContext._shape_key(MeshGEMV, fresh, weights)
        machine = warm._resident[key]["machine"]
        tk = DIM // GRID
        for y in range(GRID):
            chunk = fresh[y * tk:(y + 1) * tk]
            for x in range(GRID):
                assert np.array_equal(
                    machine.core((x, y)).load("gemv.a"), chunk
                )

    def test_plain_launch_binds_weight_views(self, rng, assert_slab_bound):
        weights = rng.integers(-4, 5, size=(DIM, DIM)).astype(np.float64)
        eager = MeshOpContext(grid=GRID, compiled=False)
        warm = MeshOpContext(grid=GRID)
        for _ in range(4):
            v = rng.integers(-4, 5, size=DIM).astype(np.float64)
            assert np.array_equal(warm.gemv(v, weights), eager.gemv(v, weights))
        # Even an aligned weight is copied into the machine's slab, never
        # bound as views of the caller's array.
        [key] = _gemv_entries(warm)
        machine = warm._resident[key]["machine"]
        assert_slab_bound(machine, v, weights)
        assert not np.shares_memory(machine.core((0, 0)).load("gemv.B"), weights)


# ---------------------------------------------------------------------------
# Link retrains invalidate bandwidth-keyed caches (regression)
# ---------------------------------------------------------------------------
class TestRetrainInvalidation:
    def _machine(self):
        defects = DefectMap(
            GRID, GRID,
            degraded_links={normalize_link((1, 0), (2, 0)): 0.5},
        )
        return MeshMachine(
            TINY_MESH.submesh(GRID, GRID),
            defects=defects,
            logical_shape=(GRID, GRID),
        )

    def test_flow_bandwidth_cache_sees_retrain(self):
        machine = self._machine()
        flow = Flow.unicast((0, 0), (3, 0), "t", "t")
        assert machine.fabric.flow_bandwidth_factor(flow) == 0.5
        machine.topology.defects.retrain_link((1, 0), (2, 0), 0.25)
        # The cache key carries links_version: no stale 0.5 served.
        assert machine.fabric.flow_bandwidth_factor(flow) == 0.25
        machine.topology.defects.retrain_link((1, 0), (2, 0), 1.0)
        assert machine.fabric.flow_bandwidth_factor(flow) == 1.0

    def test_comm_records_follow_retrain(self):
        machine = self._machine()
        machine.place("t", (0, 0), np.arange(4.0))
        machine.communicate(
            "before", [Flow.unicast((0, 0), (3, 0), "t", "t.in")]
        )
        assert machine.trace.comms[-1].flows[0].bw_factor == 0.5
        machine.topology.defects.retrain_link((1, 0), (2, 0), 0.25)
        machine.communicate(
            "after", [Flow.unicast((0, 0), (3, 0), "t", "t.in2")]
        )
        assert machine.trace.comms[-1].flows[0].bw_factor == 0.25

    def test_retrain_invalidates_captured_programs(self, rng):
        machine = self._machine()
        a, b = _operands(rng, MeshGEMV)
        _, program = MeshGEMV.capture_run(machine, a, b)
        replay_machine = self._machine()
        assert program.compatible(replay_machine)
        replay_machine.topology.defects.retrain_link((1, 0), (2, 0), 0.25)
        assert not program.compatible(replay_machine)
        with pytest.raises(ProgramReplayError):
            MeshGEMV.replay_run(replay_machine, program, a, b)


# ---------------------------------------------------------------------------
# FlowBatch construction parity: fabric SoA == per-flow lookups
# ---------------------------------------------------------------------------
class TestFlowBatchConstruction:
    @pytest.mark.parametrize("make_machine", MACHINES, ids=MACHINE_IDS)
    def test_fabric_batch_matches_per_flow(self, make_machine):
        machine = make_machine()
        fabric = machine.fabric
        flows = [
            Flow.unicast((0, 0), (3, 2), "t", "t.in"),
            Flow.multicast((1, 1), [(1, 3), (3, 1), (0, 0)], "t", "t.in"),
            Flow.unicast((2, 2), (2, 2), "t", "t.in"),  # local, zero hops
        ]
        nbytes = [32, 48, 8]
        batch = fabric.flow_batch(flows, nbytes)
        assert batch.num_flows == len(flows)
        assert batch.nbytes.tolist() == nbytes
        for i, flow in enumerate(flows):
            assert batch.hops[i] == fabric.flow_hops(flow)
            assert batch.bw_factor[i] == fabric.flow_bandwidth_factor(flow)
        assert batch.num_dsts == sum(len(f.dsts) for f in flows)
        assert [tuple(d) for d in batch.dst] == [
            d for f in flows for d in f.dsts
        ]

    def test_dense_vectorized_path_matches_loop(self):
        # Above VECTOR_MIN_FLOWS on a dense mesh the fabric vectorizes
        # Manhattan hop computation; compare to the memoized lookups.
        machine = MeshMachine(TINY_MESH.submesh(8, 8))
        fabric = machine.fabric
        flows = [
            Flow.unicast((x, y), (7 - x, 7 - y), "t", "t.in")
            for x in range(8) for y in range(8)
        ]
        nbytes = [16] * len(flows)
        batch = fabric.flow_batch(flows, nbytes)
        for i, flow in enumerate(flows):
            assert batch.hops[i] == fabric.flow_hops(flow)
            assert batch.bw_factor[i] == 1.0

    def test_record_batch_equals_lazy_rebuild(self, rng):
        machine = _clean_machine()
        MeshGEMV.run(machine, *_operands(rng, MeshGEMV))
        for rec in machine.trace.comms:
            attached = rec.flow_batch()
            rebuilt = FlowBatch.from_records(rec.flows)
            assert attached.nbytes.tolist() == rebuilt.nbytes.tolist()
            assert attached.hops.tolist() == rebuilt.hops.tolist()
            assert attached.bw_factor.tolist() == rebuilt.bw_factor.tolist()
            assert attached.src.tolist() == rebuilt.src.tolist()
            assert attached.dst.tolist() == rebuilt.dst.tolist()
            assert attached.dst_flow.tolist() == rebuilt.dst_flow.tolist()
