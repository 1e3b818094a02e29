"""Tests for the step-cost cache (repro.serving.stepcost) and the
component-cost memo underneath it (repro.llm.system_base)."""

from __future__ import annotations

import pytest

from repro.baselines.ladder import LadderSystem
from repro.baselines.t10 import T10System
from repro.core import WSE2
from repro.core.device_presets import get_device
from repro.errors import ConfigurationError
from repro.fleet import FleetConfig, FleetRouter, WaferFleet, poisson_trace
from repro.llm import system_base
from repro.llm.config import get_model
from repro.llm.wafer_system import WaferLLMSystem
from repro.mesh.faults import FaultInjector
from repro.placement import PlacementPlan, RegionCarveOut
from repro.serving import stepcost
from repro.serving.chunked import WaferServer

DEVICE = get_device("ipu-like-crossbar")
MODEL = get_model("tiny-gqa")

#: Two fabrics, three systems, three component kinds.
DEVICES = (DEVICE, get_device("tiny-test-mesh"))
SYSTEMS = (WaferLLMSystem, T10System, LadderSystem)
KINDS = {
    "prefill": ("prefill_cost", 96),
    "decode": ("decode_token_cost", 300),
    "chunk": ("chunked_prefill_cost", 48),
}
#: An explicit grid that fits both fabrics.
EXPLICIT_GRID = 6


def _server(**kwargs):
    return WaferServer(MODEL, DEVICE, mode="chunked", chunk_tokens=64,
                       default_context_len=512, **kwargs)


def _plan(prefill_grid: int = 7, decode_grid: int = 5) -> PlacementPlan:
    """A placement plan whose grids differ from every paper default."""
    return PlacementPlan(
        model=MODEL.name, device=DEVICE.name,
        logical_width=DEVICE.mesh_width, logical_height=DEVICE.mesh_height,
        prefill_region=RegionCarveOut(
            "prefill0", 0, 0, prefill_grid, prefill_grid, role="prefill"),
        decode_region=RegionCarveOut(
            "decode0", 0, 0, decode_grid, decode_grid, role="decode"),
        spare_regions=(), ktree_k=2,
        prefill_tokens_per_s=1.0, decode_tokens_per_s=1.0,
    )


def _price(system, kind, grid):
    method, arg = KINDS[kind]
    return getattr(system, method)(MODEL, arg, grid)


def _cold(system, kind, grid):
    """A price with nothing memoized, nested components included."""
    stepcost.invalidate()
    return _price(system, kind, grid)


class TestMemoization:
    def test_memoized_value_matches_direct_cost(self):
        server = _server()
        stepcost.invalidate()
        cold = server.system.fused_step_cost(
            MODEL, 128, 4, 0, server.grid).seconds
        # Warm the component memo through other shapes that share the
        # decode component, then price the step through the cache.
        server.system.fused_step_cost(MODEL, 128, 7, 64, server.grid)
        assert stepcost.fused_step_seconds(
            server.system, MODEL, 128, 4, 0, server.grid) == cold
        # Second lookup is a hit and returns the identical value.
        before = stepcost.cache_info()["hits"]
        assert stepcost.fused_step_seconds(
            server.system, MODEL, 128, 4, 0, server.grid) == cold
        assert stepcost.cache_info()["hits"] == before + 1

    def test_prefill_memoized_value_matches_direct_cost(self):
        server = _server()
        cold = _cold(server.system, "prefill", server.grid)
        server.system.prefill_cost(MODEL, 200, server.grid)
        assert stepcost.exclusive_prefill_seconds(
            server.system, MODEL, KINDS["prefill"][1], server.grid
        ) == cold.seconds

    def test_servers_with_same_shapes_share_entries(self):
        first = _server()
        first.fused_step_seconds(4, 100, 0)
        size_after_first = stepcost.cache_info()["size"]
        # A second server (e.g. another fleet epoch) prices the same
        # shape without growing the cache.
        second = _server()
        second.fused_step_seconds(4, 100, 0)
        assert stepcost.cache_info()["size"] == size_after_first

    def test_context_bucketing_shares_entries(self):
        stepcost.invalidate()  # isolate from shapes cached by other tests
        server = _server()
        server.fused_step_seconds(2, 10, 0)
        size = stepcost.cache_info()["size"]
        # 10 and 100 land in the same 128-token context bucket.
        server.fused_step_seconds(2, 100, 0)
        assert stepcost.cache_info()["size"] == size
        # 200 crosses into the next bucket: a new entry.
        server.fused_step_seconds(2, 200, 0)
        assert stepcost.cache_info()["size"] == size + 1


class TestInvalidation:
    def test_invalidate_bumps_version_and_clears(self):
        server = _server()
        server.fused_step_seconds(4, 100, 0)
        info = stepcost.cache_info()
        assert info["size"] > 0
        assert info["component_size"] > 0
        new_version = stepcost.invalidate()
        assert new_version == info["version"] + 1
        after = stepcost.cache_info()
        assert after["size"] == 0
        assert after["component_size"] == 0
        assert after["version"] == new_version

    def test_version_is_part_of_the_key(self):
        # The counter leads every key, so entries cached before a bump
        # are unreachable even if clearing were skipped: a re-lookup
        # after invalidate must be a miss, not a stale hit.
        server = _server()
        server.fused_step_seconds(4, 100, 0)
        stepcost.invalidate()
        misses = stepcost.cache_info()["misses"]
        server.fused_step_seconds(4, 100, 0)
        assert stepcost.cache_info()["misses"] == misses + 1

    def test_distinct_devices_get_distinct_entries(self):
        stepcost.invalidate()  # isolate from shapes cached by other tests
        size0 = stepcost.cache_info()["size"]
        small = _server()
        small.fused_step_seconds(1, 50, 0)
        big = WaferServer(get_model("llama3-8b"), WSE2, mode="chunked",
                          chunk_tokens=64, default_context_len=512)
        big.fused_step_seconds(1, 50, 0)
        assert stepcost.cache_info()["size"] >= size0 + 2


class TestComponentMemo:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    @pytest.mark.parametrize("system_cls", SYSTEMS,
                             ids=lambda c: c.__name__)
    def test_hit_equals_cold_price(self, system_cls, device, kind):
        system = system_cls(device)
        method = "prefill_grid" if kind == "prefill" else "decode_grid"
        default_grid = getattr(system, method)(MODEL)
        plan = _plan()
        plan_grid = plan.prefill_grid if kind == "prefill" else \
            plan.decode_grid
        for grid in (EXPLICIT_GRID, None, plan_grid):
            cold = _cold(system, kind, grid)
            # Refill the memo through the other paths first: the other
            # kinds (a chunk's decode fallback fills a decode entry) and
            # the resolved grid passed explicitly.
            stepcost.invalidate()
            resolved = default_grid if grid is None else grid
            for other in sorted(KINDS):
                _price(system, other, resolved)
            misses = stepcost.cache_info()["component_misses"]
            hit = _price(system, kind, grid)
            assert stepcost.cache_info()["component_misses"] == misses
            assert hit == cold
            assert hit is _price(system, kind, resolved)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_plan_grid_resolves_before_the_key(self, kind):
        plan = _plan()
        planned = WaferLLMSystem(DEVICE, plan=plan)
        plain = WaferLLMSystem(DEVICE)
        method = "prefill_grid" if kind == "prefill" else "decode_grid"
        plan_grid = getattr(planned, method)(MODEL)
        assert plan_grid != getattr(plain, method)(MODEL)
        cold_default = _cold(plain, kind, None)
        cold_planned = _cold(plain, kind, plan_grid)
        # The planned system's default grid is the plan's grid: it must
        # share the plain system's explicit-grid entry and never alias
        # the plain system's default-grid entry.
        stepcost.invalidate()
        assert _price(plain, kind, None) == cold_default
        assert _price(planned, kind, None) == cold_planned
        assert _price(plain, kind, plan_grid) is _price(planned, kind, None)
        assert cold_planned != cold_default

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_systems_never_share_entries(self, kind):
        stepcost.invalidate()
        t10 = _price(T10System(DEVICE), kind, EXPLICIT_GRID)
        wafer = _price(WaferLLMSystem(DEVICE), kind, EXPLICIT_GRID)
        assert t10 != wafer
        assert _cold(T10System(DEVICE), kind, EXPLICIT_GRID) == t10
        assert _cold(WaferLLMSystem(DEVICE), kind, EXPLICIT_GRID) == wafer

    def test_lookup_after_invalidate_is_a_miss(self):
        system = WaferLLMSystem(DEVICE)
        _price(system, "decode", EXPLICIT_GRID)
        misses = stepcost.cache_info()["component_misses"]
        _price(system, "decode", EXPLICIT_GRID)
        assert stepcost.cache_info()["component_misses"] == misses
        stepcost.invalidate()
        _price(system, "decode", EXPLICIT_GRID)
        assert stepcost.cache_info()["component_misses"] == misses + 1

    def test_invalid_chunk_is_rejected_before_the_memo(self):
        with pytest.raises(ConfigurationError):
            WaferLLMSystem(DEVICE).chunked_prefill_cost(MODEL, 0)

    @pytest.mark.parametrize("arg", (0, -5))
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("system_cls", SYSTEMS,
                             ids=lambda c: c.__name__)
    def test_non_positive_shape_is_rejected(self, system_cls, kind, arg):
        system = system_cls(DEVICE)
        method, _ = KINDS[kind]
        stepcost.invalidate()
        misses = stepcost.cache_info()["component_misses"]
        with pytest.raises(ConfigurationError, match="must be positive"):
            getattr(system, method)(MODEL, arg)
        assert stepcost.cache_info()["component_misses"] == misses

    def test_costs_are_frozen(self):
        cost = _price(WaferLLMSystem(DEVICE), "decode", EXPLICIT_GRID)
        with pytest.raises(AttributeError):
            cost.total_cycles = 0.0

    def test_fleet_prices_each_component_once(self):
        # Four wafers of one model on one device price every distinct
        # (kind, shape, grid) exactly once, whichever wafer asks first.
        stepcost.invalidate()
        before = stepcost.cache_info()
        fleet = WaferFleet(MODEL, DEVICE, FleetConfig(
            n_wafers=4, chunk_tokens=64, default_context_len=256, seed=0))
        trace = poisson_trace(
            48, seed=0, mean_interarrival_s=0.002,
            seq_in_range=(64, 256), seq_out_range=(8, 32),
            n_sessions=48,
        )
        metrics = FleetRouter(fleet).run(trace)
        assert metrics.finished == len(trace)
        after = stepcost.cache_info()
        priced = after["component_misses"] - before["component_misses"]
        entries = {
            key[4:] for key in system_base._COMPONENT_COST_CACHE
        }
        assert after["component_size"] == len(entries) == priced
        assert {kind for kind, _, _ in entries} >= {"decode", "chunk"}


class TestNoteSteps:
    def test_note_steps_counts_attempts(self):
        injector = FaultInjector(0.0, seed=0)
        injector.note_steps(17)
        assert injector.steps_attempted == 17
        assert injector.steps_killed == 0

    def test_note_steps_rejected_at_nonzero_rate(self):
        injector = FaultInjector(0.5, seed=0)
        with pytest.raises(ConfigurationError):
            injector.note_steps(1)
