"""Tests for distributed GEMM kernels: correctness, traces, cost shapes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.device_presets import TINY_MESH, WSE2
from repro.errors import MemoryCapacityError, ShapeError
from repro.gemm import (
    AllgatherGEMM,
    CannonGEMM,
    GemmShape,
    LogicalGrid,
    MeshGEMM,
    MeshGEMMNonSquare,
    MeshGEMMTransposed,
    SummaGEMM,
    best_grid,
)
from repro.mesh.machine import MeshMachine

KERNELS = [MeshGEMM, CannonGEMM, SummaGEMM, AllgatherGEMM]


def _machine(side, enforce=True):
    return MeshMachine(TINY_MESH.submesh(side, side), enforce_memory=enforce)


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("grid", [2, 3, 4, 5, 6])
    def test_matches_numpy(self, kernel, grid, rng):
        a = rng.standard_normal((grid * 3, grid * 2))
        b = rng.standard_normal((grid * 2, grid * 4))
        machine = _machine(grid)
        assert np.allclose(kernel.run(machine, a, b), a @ b)

    @pytest.mark.parametrize("kernel", KERNELS + [MeshGEMMTransposed])
    def test_second_run_on_one_machine(self, kernel, rng):
        """A run on a machine that already ran the kernel starts from its
        own operands: MeshGEMM's first step stores C, so the result an
        earlier run left is never added to."""
        machine = _machine(4)
        for _ in range(2):
            a = rng.standard_normal((8, 8))
            b = rng.standard_normal((8, 8))
            want = a @ b.T if kernel is MeshGEMMTransposed else a @ b
            assert np.allclose(kernel.run(machine, a, b), want)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_single_core(self, kernel, rng):
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((2, 5))
        machine = _machine(1)
        assert np.allclose(kernel.run(machine, a, b), a @ b)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_integer_exactness(self, kernel, rng):
        a = rng.integers(-10, 10, size=(8, 8)).astype(np.int64)
        b = rng.integers(-10, 10, size=(8, 8)).astype(np.int64)
        machine = _machine(4)
        assert np.array_equal(kernel.run(machine, a, b), a @ b)

    def test_rejects_non_square_machine(self, rng):
        machine = MeshMachine(TINY_MESH.submesh(4, 2))
        with pytest.raises(ShapeError):
            MeshGEMM.run(machine, np.zeros((4, 4)), np.zeros((4, 4)))

    def test_rejects_indivisible_dims(self):
        machine = _machine(4)
        with pytest.raises(ShapeError):
            MeshGEMM.run(machine, np.zeros((5, 4)), np.zeros((4, 4)))

    def test_rejects_mismatched_inner(self):
        machine = _machine(2)
        with pytest.raises(ShapeError):
            MeshGEMM.run(machine, np.zeros((4, 4)), np.zeros((6, 4)))

    @settings(max_examples=20, deadline=None)
    @given(grid=st.integers(2, 5), tm=st.integers(1, 3), tk=st.integers(1, 3),
           tn=st.integers(1, 3), seed=st.integers(0, 1000))
    def test_property_meshgemm(self, grid, tm, tk, tn, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-4, 5, size=(grid * tm, grid * tk)).astype(float)
        b = rng.integers(-4, 5, size=(grid * tk, grid * tn)).astype(float)
        machine = _machine(grid)
        assert np.array_equal(MeshGEMM.run(machine, a, b), a @ b)


class TestMeasuredCompliance:
    """Trace-measured metrics must match the Figure 6 claims."""

    def test_meshgemm_steady_state_two_hops(self, rng):
        grid = 6
        machine = _machine(grid)
        a = rng.standard_normal((grid, grid))
        MeshGEMM.run(machine, a, a)
        shift_hops = [
            r.max_hops for r in machine.trace.comms
            if r.pattern.startswith("meshgemm-shift")
        ]
        assert shift_hops and max(shift_hops) == 2

    def test_cannon_steady_state_wraparound(self, rng):
        grid = 6
        machine = _machine(grid)
        a = rng.standard_normal((grid, grid))
        CannonGEMM.run(machine, a, a)
        shift_hops = [
            r.max_hops for r in machine.trace.comms
            if r.pattern.startswith("cannon-shift")
        ]
        assert max(shift_hops) == grid - 1

    def test_cyclic_kernels_constant_route_colours(self, rng):
        grid = 6
        a = np.ones((grid, grid))
        for kernel in (MeshGEMM, CannonGEMM):
            machine = _machine(grid)
            kernel.run(machine, a, a)
            # align-A, align-B, shift-A, shift-B: 4 colours, O(1).
            assert machine.trace.max_paths_per_core <= 4

    def test_summa_route_colours_scale(self, rng):
        grid = 6
        machine = _machine(grid)
        a = np.ones((grid, grid))
        SummaGEMM.run(machine, a, a)
        assert machine.trace.max_paths_per_core >= grid

    def test_allgather_memory_violation_enforced(self):
        grid = 4
        machine = _machine(grid, enforce=True)
        # 16 KB tiles: one fits in 64 KB cores, a gathered strip cannot.
        dim = grid * 45
        a = np.zeros((dim, dim), dtype=np.float64)
        with pytest.raises(MemoryCapacityError):
            AllgatherGEMM.run(machine, a, a)

    def test_meshgemm_memory_within_tiles(self, rng):
        grid = 4
        machine = _machine(grid)
        dim = grid * 20
        a = rng.standard_normal((dim, dim))
        MeshGEMM.run(machine, a, a)  # same tiles fit fine under cyclic shift
        tile_bytes = (dim // grid) ** 2 * 8
        assert machine.peak_memory_bytes() <= 4 * tile_bytes + 64


class TestTransposedGemm:
    @pytest.mark.parametrize("grid", [2, 3, 4, 5])
    def test_matches_numpy(self, grid, rng):
        a = rng.standard_normal((grid * 2, grid * 3))
        b = rng.standard_normal((grid * 4, grid * 3))  # untransposed (n, k)
        machine = _machine(grid)
        assert np.allclose(MeshGEMMTransposed.run(machine, a, b), a @ b.T)

    def test_rejects_k_mismatch(self):
        machine = _machine(2)
        with pytest.raises(ShapeError):
            MeshGEMMTransposed.run(machine, np.zeros((4, 4)), np.zeros((4, 6)))

    def test_no_alignment_phase(self, rng):
        machine = _machine(4)
        a = rng.standard_normal((4, 4))
        MeshGEMMTransposed.run(machine, a, a)
        assert not any("align" in r.pattern for r in machine.trace.comms)

    def test_shift_bounded_two_hops(self, rng):
        machine = _machine(6)
        a = rng.standard_normal((6, 6))
        MeshGEMMTransposed.run(machine, a, a)
        hops = [r.max_hops for r in machine.trace.comms
                if r.pattern == "gemmt-shift-B"]
        assert hops and max(hops) <= 2


class TestNonSquare:
    @pytest.mark.parametrize("nh,nw", [(2, 3), (3, 2), (2, 4), (3, 4), (2, 2)])
    def test_matches_numpy(self, nh, nw, rng):
        grid = LogicalGrid(nh, nw)
        n = grid.n
        a = rng.standard_normal((n * 2, n))
        b = rng.standard_normal((n, n * 3))
        machine = MeshMachine(TINY_MESH.submesh(nw, nh))
        assert np.allclose(MeshGEMMNonSquare.run(machine, a, b), a @ b)

    def test_lcm_grid(self):
        grid = LogicalGrid(4, 6)
        assert grid.n == 12
        assert grid.rows_per_core == 3
        assert grid.cols_per_core == 2

    def test_fold_is_monotone(self):
        grid = LogicalGrid(2, 3)
        xs = [grid.physical((0, j))[0] for j in range(grid.n)]
        assert xs == sorted(xs)

    def test_estimate_runs(self):
        device = WSE2.submesh(100, 150)
        cost = MeshGEMMNonSquare.estimate(device, GemmShape.square(600))
        assert cost.total_cycles > 0


class TestCostModel:
    def test_estimate_positive_and_finite(self, wse2_750):
        for kernel in KERNELS:
            cost = kernel.estimate(wse2_750, GemmShape.square(4096))
            assert 0 < cost.total_cycles < 1e12

    def test_meshgemm_fastest_at_scale(self, wse2_750):
        shape = GemmShape.square(2048)
        mesh = MeshGEMM.estimate(wse2_750, shape, grid=720)
        cannon = CannonGEMM.estimate(wse2_750, shape, grid=720)
        summa = SummaGEMM.estimate(wse2_750, shape, grid=720)
        assert mesh.total_cycles < cannon.total_cycles
        assert mesh.total_cycles < summa.total_cycles

    def test_comm_gap_grows_with_grid(self, wse2_750):
        shape = GemmShape.square(2048)
        gaps = []
        for grid in (120, 360, 720):
            mesh = MeshGEMM.estimate(wse2_750, shape, grid=grid)
            cannon = CannonGEMM.estimate(wse2_750, shape, grid=grid)
            gaps.append(cannon.comm_cycles / mesh.comm_cycles)
        assert gaps == sorted(gaps)

    def test_table7_magnitudes(self, wse2_750):
        # 16K GEMM near 4.8 ms, 32K near 34 ms (paper Table 7).
        c16 = MeshGEMM.estimate(wse2_750, GemmShape.square(16384))
        c32 = MeshGEMM.estimate(wse2_750, GemmShape.square(32768))
        assert 2.0 < c16.milliseconds < 10.0
        assert 15.0 < c32.milliseconds < 70.0

    def test_grid_exceeding_fabric_rejected(self):
        with pytest.raises(ShapeError):
            MeshGEMM.estimate(WSE2.submesh(100), GemmShape.square(4096), grid=200)

    def test_best_grid_respects_dims(self, wse2_750):
        assert best_grid(wse2_750, GemmShape(m=64, k=4096, n=4096)) == 64
        assert best_grid(wse2_750, GemmShape.square(4096)) == 750


class TestGemmShape:
    def test_tiles_pad_up(self):
        assert GemmShape.square(10).tiles(4) == (3, 3, 3)

    def test_tile_bytes(self):
        shape = GemmShape(m=8, k=8, n=8, dtype_bytes=2)
        assert shape.tile_bytes(4) == (8, 8, 8)

    def test_total_macs(self):
        assert GemmShape(m=2, k=3, n=4).total_macs == 24

    def test_invalid_dims(self):
        with pytest.raises(ShapeError):
            GemmShape(m=0, k=1, n=1)

    def test_macs_per_core_conserves_work(self):
        shape = GemmShape.square(64)
        grid = 8
        per_core = shape.macs_per_core(grid)
        assert per_core * grid * grid == pytest.approx(shape.total_macs)
