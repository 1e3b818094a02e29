"""Tests for shift-based vs concat-based KV-cache management (Section 4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CapacityExceeded, ConfigurationError
from repro.llm.checkpoint import synthesize_weights
from repro.llm.config import LLAMA2_13B, LLAMA3_8B, TINY_GQA
from repro.llm.distributed import WaferTransformer
from repro.llm.kvcache import (
    ConcatKVCache,
    KVCacheGeometry,
    ShiftKVCache,
    capacity_geometry,
    kv_budget_per_core,
    measure_max_tokens,
)


def _geometry(rows=4, cols=4, kv_dim=8, budget=256, dtype=2):
    return KVCacheGeometry(
        grid_width=cols, grid_height=rows, kv_dim=kv_dim,
        dtype_bytes=dtype, budget_bytes_per_core=budget,
    )


class TestGeometry:
    def test_bytes_per_token(self):
        geo = _geometry(kv_dim=8, cols=4, dtype=2)
        # 2 features per core * 2 (K,V) * 2 B = 8 B.
        assert geo.bytes_per_token_per_core == 8

    def test_tokens_per_row(self):
        geo = _geometry(budget=256)
        assert geo.tokens_per_row == 32

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            KVCacheGeometry(grid_width=0, grid_height=1, kv_dim=1)

    @pytest.mark.parametrize("field_name", [
        "grid_width", "grid_height", "kv_dim", "dtype_bytes",
        "budget_bytes_per_core",
    ])
    @pytest.mark.parametrize("value", [0, -1, 2.5, float("nan"), True, "4"])
    def test_every_field_must_be_a_positive_int(self, field_name, value):
        fields = dict(grid_width=4, grid_height=4, kv_dim=8)
        fields[field_name] = value
        with pytest.raises(ConfigurationError, match=field_name):
            KVCacheGeometry(**fields)

    @pytest.mark.parametrize("kwargs", [
        {"kv_rows": 2.5}, {"kv_budget_bytes": 1.5},
        {"kv_budget_bytes": float("nan")}, {"kv_rows": 0},
    ], ids=["rows-2.5", "budget-1.5", "budget-nan", "rows-0"])
    def test_transformer_rejects_bad_kv_geometry(self, kwargs):
        weights = synthesize_weights(TINY_GQA, seed=0)
        with pytest.raises(ConfigurationError):
            WaferTransformer(weights, **kwargs)


class TestShiftCache:
    def test_append_and_readback(self, rng):
        cache = ShiftKVCache(_geometry())
        ks = [rng.standard_normal(8) for _ in range(10)]
        vs = [rng.standard_normal(8) for _ in range(10)]
        for k, v in zip(ks, vs):
            cache.append(k, v)
        k_all, v_all = cache.all_kv()
        assert np.allclose(k_all, np.stack(ks))
        assert np.allclose(v_all, np.stack(vs))

    def test_balanced_occupancy(self):
        cache = ShiftKVCache(_geometry(rows=4))
        for _ in range(17):
            cache.append(np.zeros(8), np.zeros(8))
        occupancy = cache.row_occupancy()
        assert max(occupancy) - min(occupancy) <= 1

    def test_physical_order_matches_logical(self):
        cache = ShiftKVCache(_geometry(rows=4))
        for _ in range(13):
            cache.append(np.zeros(8), np.zeros(8))
        order = cache.tokens_in_order()
        assert order == sorted(order)

    def test_capacity_uses_all_rows(self):
        geo = _geometry(rows=5, budget=64)  # 8 tokens/row
        cache = ShiftKVCache(geo)
        assert cache.capacity == 5 * 8

    def test_capacity_exceeded_raises(self):
        cache = ShiftKVCache(_geometry(rows=2, budget=16))  # 2/row -> 4
        for _ in range(4):
            cache.append(np.zeros(8), np.zeros(8))
        with pytest.raises(CapacityExceeded):
            cache.append(np.zeros(8), np.zeros(8))

    def test_measured_capacity_matches_property(self):
        geo = _geometry(rows=3, budget=80)
        assert measure_max_tokens(ShiftKVCache(geo)) == ShiftKVCache(geo).capacity

    def test_shift_moves_accounted(self):
        cache = ShiftKVCache(_geometry(rows=4))
        total = 0
        for _ in range(12):
            total += cache.append(np.zeros(8), np.zeros(8))
        assert cache.total_shift_moves == total
        assert total > 0

    def test_max_row_bytes_balanced(self):
        geo = _geometry(rows=4, budget=1 << 20)
        cache = ShiftKVCache(geo)
        for _ in range(40):
            cache.append(np.zeros(8), np.zeros(8))
        assert cache.max_row_bytes() == 10 * geo.bytes_per_token_per_core

    @settings(max_examples=30, deadline=None)
    @given(rows=st.integers(1, 6), appends=st.integers(0, 60))
    def test_invariants_hold_for_any_history(self, rows, appends):
        geo = _geometry(rows=rows, budget=1 << 16)
        cache = ShiftKVCache(geo)
        for i in range(appends):
            cache.append(np.full(8, float(i)), np.zeros(8))
        # No token lost, order preserved, balance within 1.
        assert cache.num_tokens == appends
        order = cache.tokens_in_order()
        assert order == sorted(order) and len(order) == appends
        occ = cache.row_occupancy()
        assert max(occ) - min(occ) <= 1 if appends >= rows else True


class TestConcatCache:
    def test_everything_on_bottom_row(self):
        cache = ConcatKVCache(_geometry(rows=4))
        for _ in range(5):
            cache.append(np.zeros(8), np.zeros(8))
        occupancy = cache.row_occupancy()
        assert occupancy[:-1] == [0, 0, 0]
        assert occupancy[-1] == 5

    def test_capacity_is_one_row(self):
        geo = _geometry(rows=5, budget=64)
        assert ConcatKVCache(geo).capacity == 8

    def test_capacity_exceeded(self):
        cache = ConcatKVCache(_geometry(rows=4, budget=16))
        for _ in range(2):
            cache.append(np.zeros(8), np.zeros(8))
        with pytest.raises(CapacityExceeded):
            cache.append(np.zeros(8), np.zeros(8))

    def test_readback_order(self, rng):
        cache = ConcatKVCache(_geometry(budget=1 << 12))
        ks = [rng.standard_normal(8) for _ in range(6)]
        for k in ks:
            cache.append(k, k)
        k_all, _ = cache.all_kv()
        assert np.allclose(k_all, np.stack(ks))

    def test_skewed_memory_vs_shift(self):
        geo = _geometry(rows=4, budget=1 << 20)
        concat = ConcatKVCache(geo)
        shift = ShiftKVCache(geo)
        for _ in range(40):
            concat.append(np.zeros(8), np.zeros(8))
            shift.append(np.zeros(8), np.zeros(8))
        # The concat bottom row holds ~4x the bytes of any shift row.
        assert concat.max_row_bytes() >= 3 * shift.max_row_bytes()


class TestCapacityModel:
    def test_shift_concat_ratio_equals_rows(self):
        # Table 5's headline: shift supports grid_height x more tokens.
        for model, grid in ((LLAMA3_8B, 360), (LLAMA2_13B, 375)):
            geo = capacity_geometry(model, grid, 48 * 1024, 851_400)
            assert ShiftKVCache(geo).capacity == \
                grid * ConcatKVCache(geo).capacity

    def test_budget_decreases_with_model_size(self):
        small = kv_budget_per_core(LLAMA3_8B, 48 * 1024, 851_400)
        large = kv_budget_per_core(LLAMA2_13B, 48 * 1024, 851_400)
        assert large <= small

    def test_budget_floor(self):
        budget = kv_budget_per_core(LLAMA2_13B, 16 * 1024, 1000)
        assert budget >= 1024

    def test_table5_orders_of_magnitude(self):
        geo8 = capacity_geometry(LLAMA3_8B, 360, 48 * 1024, 851_400)
        geo13 = capacity_geometry(LLAMA2_13B, 375, 48 * 1024, 851_400)
        # Paper: 382 and 137548 for 8B; 16 and 6168 for 13B.
        assert 100 <= ConcatKVCache(geo8).capacity <= 1500
        assert 40_000 <= ShiftKVCache(geo8).capacity <= 500_000
        assert 4 <= ConcatKVCache(geo13).capacity <= 80
        assert 1_500 <= ShiftKVCache(geo13).capacity <= 30_000


# ---------------------------------------------------------------------------
# all_kv: O(1) views of a dense buffer, equal to the sort-and-stack readout
# ---------------------------------------------------------------------------
def _stacked_readout(cache, appended):
    """The sort-and-stack ``all_kv`` readout: the appended ``(k, v)`` of
    every position the cache holds, sorted by position."""
    if isinstance(cache, ShiftKVCache):
        order = sorted(cache.tokens_in_order())
    else:
        order = range(cache.num_tokens)
    return (np.stack([appended[pos][0] for pos in order]),
            np.stack([appended[pos][1] for pos in order]))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from([ShiftKVCache, ConcatKVCache]),
    rows=st.integers(1, 5),
    appends=st.integers(0, 70),
    probes=st.lists(st.integers(0, 70), max_size=6),
    seed=st.integers(0, 2**16),
)
def test_all_kv_views_match_the_stacked_readout(kind, rows, appends, probes,
                                                 seed):
    rng = np.random.default_rng(seed)
    cache = kind(_geometry(rows=rows, budget=1 << 16))
    held = []  # (view pair, its values at the time it was taken)
    appended = []  # (k, v) per position, in append order
    for i in range(appends):
        appended.append((rng.standard_normal(8), rng.standard_normal(8)))
        cache.append(*appended[-1])
        k_all, v_all = cache.all_kv()
        want_k, want_v = _stacked_readout(cache, appended)
        assert np.array_equal(k_all, want_k) and np.array_equal(v_all, want_v)
        assert k_all.dtype == want_k.dtype and k_all.strides == want_k.strides
        if i in probes:
            held.append(((k_all, v_all), (k_all.copy(), v_all.copy())))
    # Later appends and buffer growth leave earlier views untouched.
    for (k_view, v_view), (k_then, v_then) in held:
        assert np.array_equal(k_view, k_then)
        assert np.array_equal(v_view, v_then)
    if not appends:
        k_all, v_all = cache.all_kv()
        assert k_all.shape == (0, 8) and v_all.shape == (0, 8)


def test_all_kv_buffer_grows_by_doubling_not_to_capacity():
    cache = ShiftKVCache(_geometry(rows=4, budget=1 << 20))
    assert cache.capacity > 100_000
    for _ in range(9):
        cache.append(np.zeros(8), np.zeros(8))
    assert cache._dense._k.shape[0] < 64
