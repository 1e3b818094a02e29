"""Tests for the padded mesh-op wrappers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.llm.mesh_ops import MeshOpContext


@pytest.fixture
def ops() -> MeshOpContext:
    """The default (compiled) context; the ``*Eager`` classes at the end
    re-run every test on the ``compiled=False`` oracle."""
    return MeshOpContext(grid=4)


class TestMatrixOps:
    def test_gemm_odd_shapes(self, ops, rng):
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        assert np.allclose(ops.gemm(a, b), a @ b)

    def test_gemm_shape_mismatch(self, ops):
        with pytest.raises(ShapeError):
            ops.gemm(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_gemm_t(self, ops, rng):
        a = rng.standard_normal((5, 6))
        b = rng.standard_normal((9, 6))
        assert np.allclose(ops.gemm_t(a, b), a @ b.T)

    def test_gemm_t_mismatch(self, ops):
        with pytest.raises(ShapeError):
            ops.gemm_t(np.zeros((2, 3)), np.zeros((4, 5)))

    def test_gemv(self, ops, rng):
        a = rng.standard_normal(10)
        b = rng.standard_normal((10, 6))
        assert np.allclose(ops.gemv(a, b), a @ b)

    def test_gemv_rejects_matrix(self, ops):
        with pytest.raises(ShapeError):
            ops.gemv(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_repeated_launches_match_eager(self, ops, rng):
        # Same shapes, new arrays: compiled mode replays each launch on
        # its shape's warm machine, which must not leak the last launch.
        oracle = MeshOpContext(grid=4, compiled=False)
        for _ in range(3):
            a = rng.standard_normal((5, 7))
            b = rng.standard_normal((7, 6))
            bt = rng.standard_normal((6, 7))
            v = rng.standard_normal(7)
            assert np.array_equal(ops.gemm(a, b), oracle.gemm(a, b))
            assert np.array_equal(ops.gemm_t(a, bt), oracle.gemm_t(a, bt))
            assert np.array_equal(ops.gemv(v, b), oracle.gemv(v, b))

    def test_small_grid_context(self, rng):
        ops = MeshOpContext(grid=2)
        a = rng.standard_normal((3, 3))
        assert np.allclose(ops.gemm(a, a), a @ a)


class TestReductionOps:
    def test_reduce_sum(self, ops, rng):
        x = rng.standard_normal(37)
        assert ops.reduce_sum(x) == pytest.approx(x.sum())

    def test_reduce_max(self, ops, rng):
        x = rng.standard_normal(23)
        assert ops.reduce_max(x) == pytest.approx(x.max())

    def test_rms_norm_matches_dense(self, ops, rng):
        from repro.llm.reference import rms_norm
        x = rng.standard_normal(16)
        w = rng.standard_normal(16)
        assert np.allclose(ops.rms_norm(x, w, 1e-5), rms_norm(x, w, 1e-5))

    def test_softmax_matches_dense(self, ops, rng):
        from repro.llm.reference import softmax
        x = rng.standard_normal(11)
        assert np.allclose(ops.softmax(x), softmax(x))

    def test_softmax_with_mask(self, ops):
        x = np.array([0.5, -np.inf, 0.5, -np.inf])
        probs = ops.softmax(x)
        assert probs[1] == 0.0 and probs[3] == 0.0
        assert probs.sum() == pytest.approx(1.0)

    def test_softmax_fully_masked_rejected(self, ops):
        with pytest.raises(ShapeError):
            ops.softmax(np.array([-np.inf, -np.inf]))

    @pytest.mark.parametrize(
        "scores",
        [
            [1.0, np.inf, 0.5, -np.inf],
            [1.0, np.nan, 0.5, -np.inf],
            [np.nan, 2.0],
            [np.inf, np.inf],
        ],
        ids=["plus-inf", "nan", "nan-first", "all-plus-inf"],
    )
    def test_softmax_non_finite_scores_match_reference(self, ops, scores):
        # Only -inf masks; +inf and NaN are numeric faults that must
        # surface as NaN, the way the dense reference reports them.
        from repro.llm.reference import softmax
        x = np.array(scores)
        with np.errstate(invalid="ignore"):
            got = ops.softmax(x)
            want = softmax(x)
        assert np.isnan(want).all()
        assert np.array_equal(got, want, equal_nan=True)

    def test_row_variants(self, ops, rng):
        from repro.llm.reference import rms_norm, softmax
        x = rng.standard_normal((3, 8))
        w = np.ones(8)
        assert np.allclose(ops.rms_norm_rows(x, w, 1e-5), rms_norm(x, w, 1e-5))
        assert np.allclose(ops.softmax_rows(x), softmax(x, axis=-1))

    def test_row_variants_of_no_rows(self, ops):
        # Zero rows give a (0, n) result, as gemm does, and launch nothing.
        before = ops.total_kernels()
        normed = ops.rms_norm_rows(np.ones((0, 8)), np.ones(8), 1e-5)
        probs = ops.softmax_rows(np.ones((0, 5)))
        assert normed.shape == (0, 8) and normed.dtype == np.float64
        assert probs.shape == (0, 5) and probs.dtype == np.float64
        assert ops.gemm(np.ones((0, 4)), np.ones((4, 3))).shape == (0, 3)
        assert ops.total_kernels() == before + 1


MALFORMED = {
    "gemv-1d-matrix": lambda ops: ops.gemv(np.ones(8), np.ones(8)),
    "gemv-3d-matrix": lambda ops: ops.gemv(np.ones(8), np.ones((8, 4, 2))),
    "gemm-1d-lhs": lambda ops: ops.gemm(np.ones(4), np.ones((4, 4))),
    "gemm_t-1d-rhs": lambda ops: ops.gemm_t(np.ones((4, 4)), np.ones(4)),
    "rms_norm-empty": lambda ops: ops.rms_norm(np.ones(0), np.ones(0), 1e-5),
    "rms_norm_rows-1d": lambda ops: ops.rms_norm_rows(
        np.ones(8), np.ones(8), 1e-5),
    "rms_norm_rows-3d": lambda ops: ops.rms_norm_rows(
        np.ones((2, 2, 8)), np.ones(8), 1e-5),
    "softmax_rows-1d": lambda ops: ops.softmax_rows(np.ones(8)),
    "softmax_rows-0d": lambda ops: ops.softmax_rows(np.float64(1.0)),
}


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "eager"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_operands_raise_shape_error(case, compiled):
    with pytest.raises(ShapeError):
        MALFORMED[case](MeshOpContext(grid=4, compiled=compiled))


WRONG_NORM_WEIGHT = {
    "rms_norm": lambda ops: ops.rms_norm(np.ones(4), np.ones(3), 1e-6),
    "rms_norm_rows": lambda ops: ops.rms_norm_rows(
        np.ones((2, 4)), np.ones(3), 1e-6),
}


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "eager"])
@pytest.mark.parametrize("case", sorted(WRONG_NORM_WEIGHT))
def test_wrong_length_norm_weight_raises_before_any_launch(case, compiled):
    ops = MeshOpContext(grid=4, compiled=compiled)
    ops.rms_norm(np.ones(4), np.ones(4), 1e-6)  # warms the line reduction
    launches, machines = len(ops.traces), dict(ops._resident)
    generation = ops._generation
    with pytest.raises(ShapeError, match="weight"):
        WRONG_NORM_WEIGHT[case](ops)
    assert len(ops.traces) == launches
    assert ops._resident == machines
    assert ops._generation == generation


class TestAccounting:
    def test_traces_accumulate(self, ops, rng):
        before = ops.total_kernels()
        ops.gemm(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
        ops.reduce_sum(np.ones(8))
        assert ops.total_kernels() == before + 2

    def test_max_paths_empty(self):
        assert MeshOpContext().max_paths_per_core() == 0


@pytest.mark.parametrize("grid", [0, -2, 2.0, True, "4", None])
def test_invalid_grid_rejected_at_construction(grid):
    with pytest.raises(ConfigurationError, match="grid"):
        MeshOpContext(grid=grid)


def test_numpy_integer_grid_accepted():
    ops = MeshOpContext(grid=np.int64(2))
    assert ops.reduce_sum(np.arange(6.0)) == 15.0


class EagerMode:
    """Mixin: run a test class against the eager oracle context."""

    @pytest.fixture
    def ops(self) -> MeshOpContext:
        return MeshOpContext(grid=4, compiled=False)


class TestMatrixOpsEager(EagerMode, TestMatrixOps):
    pass


class TestReductionOpsEager(EagerMode, TestReductionOps):
    pass


class TestAccountingEager(EagerMode, TestAccounting):
    pass
