"""Defect maps, logical remapping, and degraded-fabric cost threading.

The contract under test: kernels address a dense logical mesh and stay
bit-exact, while every flow beneath them pays the *physical* route —
remap displacement, dead-link detours, degraded-link bandwidth — and
those costs surface in the trace, the fabric arithmetic, and the
plan-vs-trace reconciler.
"""

import numpy as np
import pytest

from repro.core.device_presets import TINY_MESH
from repro.errors import ConfigurationError, RemapError
from repro.gemm import MeshGEMM
from repro.gemm.base import GemmShape
from repro.mesh.cost_model import CommPhase, ReducePhase
from repro.mesh.machine import MeshMachine
from repro.mesh.reconcile import reconcile, trace_cost
from repro.mesh.remap import (
    DefectMap,
    RemappedTopology,
    build_remap,
    build_remapped_topology,
    normalize_link,
)
from repro.mesh.topology import MeshTopology


class TestDefectMap:
    def test_empty_map_has_no_defects(self):
        defects = DefectMap.empty(4, 4)
        assert defects.num_defects == 0
        assert not defects.has_link_defects
        assert defects.core_ok((0, 0))
        assert defects.link_ok((0, 0), (1, 0))
        assert defects.link_factor((0, 0), (1, 0)) == 1.0

    def test_link_queries_are_orientation_blind(self):
        link = normalize_link((1, 0), (0, 0))
        defects = DefectMap(2, 1, dead_links=frozenset({link}))
        assert not defects.link_ok((0, 0), (1, 0))
        assert not defects.link_ok((1, 0), (0, 0))

    def test_degraded_factor_bounds_enforced(self):
        with pytest.raises(ConfigurationError):
            DefectMap(2, 2, degraded_links={((0, 0), (1, 0)): 1.5})
        with pytest.raises(ConfigurationError):
            DefectMap(2, 2, degraded_links={((0, 0), (1, 0)): 0.0})

    def test_dead_and_degraded_conflict_rejected(self):
        link = ((0, 0), (1, 0))
        with pytest.raises(ConfigurationError):
            DefectMap(2, 2, dead_links=frozenset({link}),
                      degraded_links={link: 0.5})

    def test_out_of_fabric_dead_core_rejected(self):
        with pytest.raises(ConfigurationError):
            DefectMap(2, 2, dead_cores=frozenset({(5, 0)}))

    def test_generate_is_seed_deterministic(self):
        kwargs = dict(dead_core_rate=0.1, dead_link_rate=0.05,
                      degraded_link_rate=0.1)
        first = DefectMap.generate(8, 8, seed=11, **kwargs)
        second = DefectMap.generate(8, 8, seed=11, **kwargs)
        assert first.dead_cores == second.dead_cores
        assert first.dead_links == second.dead_links
        assert first.degraded_links == second.degraded_links
        different = DefectMap.generate(8, 8, seed=12, **kwargs)
        assert (
            different.dead_cores != first.dead_cores
            or different.dead_links != first.dead_links
            or different.degraded_links != first.degraded_links
        )

    @pytest.mark.parametrize(
        "factor", [0.0, 1.0, 7.0, float("nan"), float("inf")])
    def test_generate_rejects_bad_degraded_factor_for_every_seed(self, factor):
        # At this rate no link draws degraded, so only a check made
        # before drawing sees the factor.
        with pytest.raises(ConfigurationError):
            DefectMap.generate(4, 4, degraded_link_rate=1e-9,
                               degraded_factor=factor)


class TestBuildRemap:
    def test_pristine_wafer_maps_identity(self):
        remap = build_remap(MeshTopology(4, 4), DefectMap.empty(4, 4))
        assert remap.is_identity
        assert remap.logical_width == 4 and remap.logical_height == 4

    def test_dead_core_skipped_eastward(self):
        defects = DefectMap(4, 2, dead_cores=frozenset({(1, 0)}))
        remap = build_remap(MeshTopology(4, 2), defects,
                            logical_width=3, logical_height=2)
        # Row 0: logical columns 0,1,2 land on physical 0,2,3.
        assert remap.to_physical((0, 0)) == (0, 0)
        assert remap.to_physical((1, 0)) == (2, 0)
        assert remap.to_physical((2, 0)) == (3, 0)
        # Row 1 is untouched.
        assert remap.to_physical((1, 1)) == (1, 1)
        assert remap.displaced_cores == 2

    def test_overloaded_row_skipped_via_spare(self):
        # Row 1 has two dead cores: it cannot host 3 logical columns, so
        # logical row 1 falls through to physical row 2 (the spare).
        defects = DefectMap(4, 3, dead_cores=frozenset({(0, 1), (2, 1)}))
        remap = build_remap(MeshTopology(4, 3), defects,
                            logical_width=3, logical_height=2)
        assert remap.skipped_rows == (1,)
        assert remap.to_physical((0, 1)) == (0, 2)

    def test_spares_exhausted_raises(self):
        defects = DefectMap(3, 2, dead_cores=frozenset({(0, 0), (1, 1)}))
        with pytest.raises(RemapError, match="spare rows exhausted"):
            build_remap(MeshTopology(3, 2), defects,
                        logical_width=3, logical_height=2)

    def test_auto_dims_shrink_by_worst_row(self):
        defects = DefectMap(5, 3, dead_cores=frozenset({(0, 1), (3, 1)}))
        remap = build_remap(MeshTopology(5, 3), defects)
        assert remap.logical_width == 3
        assert remap.logical_height == 3

    def test_unknown_logical_coordinate_raises(self):
        remap = build_remap(MeshTopology(2, 2), DefectMap.empty(2, 2))
        with pytest.raises(RemapError):
            remap.to_physical((5, 5))


class TestRemappedTopology:
    def test_logical_surface_is_dense(self):
        defects = DefectMap(5, 4, dead_cores=frozenset({(2, 1)}))
        topo = build_remapped_topology(5, 4, defects,
                                       logical_width=4, logical_height=4)
        assert isinstance(topo, RemappedTopology)
        assert topo.width == 4 and topo.height == 4
        assert len(list(topo.coords())) == 16
        assert topo.neighbours((0, 0)) == [(1, 0), (0, 1)]

    def test_hop_distance_at_least_manhattan(self):
        defects = DefectMap.generate(6, 6, seed=5, dead_core_rate=0.08)
        topo = build_remapped_topology(6, 6, defects)
        for dst in [(topo.width - 1, topo.height - 1), (0, topo.height - 1)]:
            manhattan = abs(dst[0]) + abs(dst[1])
            assert topo.hop_distance((0, 0), dst) >= manhattan

    def test_dead_link_detour_adds_two_hops(self):
        defects = DefectMap(
            4, 3, dead_links=frozenset({normalize_link((1, 1), (2, 1))})
        )
        topo = build_remapped_topology(4, 3, defects,
                                       logical_width=4, logical_height=3)
        route = topo.physical_route((0, 1), (3, 1))
        assert len(route) - 1 == 5  # 3 nominal + 2 detour hops
        # The blocked wire never appears in the walked route.
        walked = {normalize_link(a, b) for a, b in zip(route, route[1:])}
        assert normalize_link((1, 1), (2, 1)) not in walked

    def test_detour_prefers_healthy_side(self):
        # Northern substitute is also dead, so the detour must go south.
        defects = DefectMap(4, 3, dead_links=frozenset({
            normalize_link((1, 1), (2, 1)),
            normalize_link((1, 0), (2, 0)),
        }))
        topo = build_remapped_topology(4, 3, defects,
                                       logical_width=4, logical_height=3)
        route = topo.physical_route((1, 1), (2, 1))
        assert (1, 2) in route and (2, 2) in route

    def test_degraded_link_factor_exposed(self):
        link = normalize_link((0, 0), (1, 0))
        defects = DefectMap(3, 3, degraded_links={link: 0.25})
        topo = build_remapped_topology(3, 3, defects,
                                       logical_width=3, logical_height=3)
        assert topo.has_link_defects
        assert topo.link_bandwidth_factor((0, 0), (1, 0)) == 0.25
        assert topo.link_bandwidth_factor((1, 0), (2, 0)) == 1.0


class TestDegradedFabricCosts:
    def _machine(self, defects, logical):
        device = TINY_MESH.submesh(defects.width, defects.height)
        return MeshMachine(device, defects=defects, logical_shape=logical)

    def test_flow_records_carry_bandwidth_factor(self):
        link = normalize_link((0, 0), (1, 0))
        defects = DefectMap(3, 3, degraded_links={link: 0.5})
        machine = self._machine(defects, (3, 3))
        machine.place("t", (0, 0), np.ones(4))
        from repro.mesh.fabric import Flow
        machine.communicate(
            "probe", [Flow.unicast((0, 0), (2, 0), "t", "t.in")]
        )
        comm = machine.trace.comms[-1]
        flow = comm.flows[0]
        assert flow.bw_factor == 0.5
        assert flow.wire_bytes == flow.nbytes / 0.5
        assert comm.min_bw_factor == 0.5

    def test_degraded_route_costs_more_than_clean(self):
        rng = np.random.default_rng(2)
        a = rng.integers(-4, 5, size=(8, 8)).astype(float)
        b = rng.integers(-4, 5, size=(8, 8)).astype(float)
        clean = MeshMachine(TINY_MESH.submesh(4, 4))
        MeshGEMM.run(clean, a, b)
        link = normalize_link((1, 1), (2, 1))
        defects = DefectMap(4, 4, degraded_links={link: 0.25})
        degraded = self._machine(defects, (4, 4))
        MeshGEMM.run(degraded, a, b)
        clean_cost = trace_cost(clean.device, clean.trace)
        slow_cost = trace_cost(degraded.device, degraded.trace)
        assert slow_cost.comm_cycles > clean_cost.comm_cycles

    def test_stream_cycles_validates_and_scales(self):
        machine = MeshMachine(TINY_MESH.submesh(2, 2))
        base = machine.fabric.stream_cycles(2, 1024)
        half = machine.fabric.stream_cycles(2, 1024, bw_factor=0.5)
        head = 2 * machine.device.hop_cycles
        assert half - head == pytest.approx(2 * (base - head))
        with pytest.raises(ConfigurationError):
            machine.fabric.stream_cycles(2, 1024, bw_factor=0.0)

    def test_phase_bw_derate_scales_body_only(self):
        device = TINY_MESH
        full = CommPhase(label="x", hop_distance=4, payload_bytes=4096)
        slow = CommPhase(label="x", hop_distance=4, payload_bytes=4096,
                         bw_derate=0.5)
        head = 4 * device.hop_cycles + full.overhead_cycles
        assert slow.cycles(device) - head == pytest.approx(
            2 * (full.cycles(device) - head)
        )
        with pytest.raises(ConfigurationError):
            CommPhase(label="x", hop_distance=1, payload_bytes=1,
                      bw_derate=1.5)
        with pytest.raises(ConfigurationError):
            ReducePhase(label="x", stages=1, stage_hop_distance=1,
                        payload_bytes=1, stage_add_elems=1, bw_derate=0.0)


class TestReconcileWithDefects:
    def test_plan_tolerances_hold_on_mildly_degraded_fabric(self):
        """The logical plan stays within the default tolerances of a
        trace that pays real physical hops through a mild defect map."""
        rng = np.random.default_rng(7)
        grid = 4
        a = rng.integers(-4, 5, size=(8, 8)).astype(float)
        b = rng.integers(-4, 5, size=(8, 8)).astype(float)
        link = normalize_link((3, 2), (3, 3))
        defects = DefectMap(5, 4, dead_cores=frozenset({(2, 1)}),
                            degraded_links={link: 0.8})
        machine = MeshMachine(TINY_MESH.submesh(5, 4), defects=defects,
                              logical_shape=(grid, grid))
        out = MeshGEMM.run(machine, a, b)
        assert np.array_equal(out, a @ b)
        plan = MeshGEMM.plan(GemmShape.square(8), grid)
        report = reconcile(plan, machine.trace, machine.device,
                           name="meshgemm-defective")
        report.check()
