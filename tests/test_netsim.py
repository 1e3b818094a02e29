"""Tests for the fluid NoC simulator and its cost-model cross-checks."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.device_presets import TINY_MESH, WSE2
from repro.errors import ConfigurationError
from repro.mesh.netsim import (
    FlowSpec,
    allgather_incast_slowdown,
    cannon_wraparound_slowdown,
    phase_makespan,
    simulate_flows,
)


def _xy_links(src, dst):
    """Directed links of the X-then-Y route from ``src`` to ``dst``."""
    links, (x, y) = [], src
    while x != dst[0]:
        nxt = x + (1 if dst[0] > x else -1)
        links.append(((x, y), (nxt, y)))
        x = nxt
    while y != dst[1]:
        nxt = y + (1 if dst[1] > y else -1)
        links.append(((x, y), (x, nxt)))
        y = nxt
    return links


@pytest.fixture
def device():
    return TINY_MESH.submesh(8, 8)


class TestSingleFlow:
    def test_matches_closed_form(self, device):
        result = simulate_flows(device, [FlowSpec((0, 0), (4, 0), 40.0)])[0]
        # 4 hops + 40 B / 4 B-per-cycle = 14 cycles.
        assert result.completion_cycles == pytest.approx(14.0)
        assert result.slowdown == pytest.approx(1.0)

    def test_xy_route_hops(self, device):
        result = simulate_flows(device, [FlowSpec((0, 0), (3, 2), 4.0)])[0]
        assert result.hops == 5

    def test_local_flow_zero_hops(self, device):
        result = simulate_flows(device, [FlowSpec((2, 2), (2, 2), 8.0)])[0]
        assert result.hops == 0
        assert result.completion_cycles == pytest.approx(2.0)

    def test_invalid_payload(self):
        with pytest.raises(ConfigurationError):
            FlowSpec((0, 0), (1, 0), 0.0)

    @pytest.mark.parametrize("payload", [float("nan"), float("inf")])
    def test_non_finite_payload_rejected(self, payload):
        # NaN remaining bytes never drain, so the simulator would spin.
        with pytest.raises(ConfigurationError):
            FlowSpec((0, 0), (3, 0), payload)


class TestContention:
    def test_shared_link_halves_rate(self, device):
        flows = [FlowSpec((0, 0), (2, 0), 40.0),
                 FlowSpec((0, 0), (2, 0), 40.0)]
        results = simulate_flows(device, flows)
        for result in results:
            assert result.completion_cycles == pytest.approx(2 + 20)
            assert result.slowdown == pytest.approx(22 / 12)

    def test_disjoint_flows_do_not_interact(self, device):
        flows = [FlowSpec((0, 0), (3, 0), 40.0),
                 FlowSpec((0, 5), (3, 5), 40.0)]
        for result in simulate_flows(device, flows):
            assert result.slowdown == pytest.approx(1.0)

    def test_opposite_directions_full_duplex(self, device):
        flows = [FlowSpec((0, 0), (3, 0), 40.0),
                 FlowSpec((3, 0), (0, 0), 40.0)]
        for result in simulate_flows(device, flows):
            assert result.slowdown == pytest.approx(1.0)

    def test_max_min_fairness_short_flow_releases_capacity(self, device):
        # A short flow shares a link with a long one; once it drains the
        # long flow speeds up, finishing sooner than a constant half-rate.
        flows = [FlowSpec((0, 0), (2, 0), 8.0),
                 FlowSpec((0, 0), (2, 0), 80.0)]
        results = simulate_flows(device, flows)
        long_flow = max(results, key=lambda r: r.spec.payload_bytes)
        assert long_flow.completion_cycles < 2 + 80 / 2
        assert long_flow.completion_cycles > 2 + 80 / 4

    def test_makespan_is_max(self, device):
        flows = [FlowSpec((0, 0), (1, 0), 4.0),
                 FlowSpec((0, 1), (7, 1), 400.0)]
        makespan = phase_makespan(device, flows)
        worst = max(r.completion_cycles for r in simulate_flows(device, flows))
        assert makespan == pytest.approx(worst)

    def test_fan_in_contention(self, device):
        # Seven 64 B flows all cross the last link into (7, 0): each drains
        # at a seventh of the link, then pays its own hop latency.
        flows = [FlowSpec((x, 0), (7, 0), 64.0) for x in range(7)]
        results = simulate_flows(device, flows)
        for x, result in enumerate(results):
            assert result.hops == 7 - x
            assert result.completion_cycles == pytest.approx(
                7 * 64 / 4 + (7 - x)
            )

    def test_duplicate_routes(self, device):
        flows = [FlowSpec((0, 0), (4, 0), 100.0)] * 5
        for result in simulate_flows(device, flows):
            assert result.completion_cycles == pytest.approx(4 + 5 * 100 / 4)

    def test_random_flows_within_link_load_bounds(self, device):
        # Lower bound: a link's last user cannot drain before the link has
        # carried its whole load.  Upper bound: until a flow drains, some
        # link on its route is saturated, so its drain time is at most the
        # summed load of its route's links over the link bandwidth.
        rng = np.random.default_rng(7)
        flows = [
            FlowSpec(
                (int(rng.integers(8)), int(rng.integers(8))),
                (int(rng.integers(8)), int(rng.integers(8))),
                float(rng.integers(1, 400)),
            )
            for _ in range(40)
        ]
        results = simulate_flows(device, flows)
        capacity = device.link_bytes_per_cycle
        routes = [_xy_links(f.src, f.dst) for f in flows]
        load = defaultdict(float)
        for flow, route in zip(flows, routes):
            for link in route:
                load[link] += flow.payload_bytes
        drain = [r.completion_cycles - r.hops for r in results]
        for flow, route, result, t in zip(flows, routes, results, drain):
            assert result.spec == flow
            assert result.hops == len(route)
            assert result.slowdown >= 1.0 - 1e-9
            if route:
                assert t <= sum(load[l] for l in route) / capacity + 1e-9
            else:
                assert t == pytest.approx(flow.payload_bytes / capacity)
        for link, total in load.items():
            last = max(t for route, t in zip(routes, drain) if link in route)
            assert last >= total / capacity - 1e-9

    def test_empty_phase(self, device):
        assert phase_makespan(device, []) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 6), payload=st.floats(4.0, 400.0))
    def test_conservation_property(self, n, payload):
        # Total delivered bytes / makespan never exceeds aggregate
        # capacity of the links actually used.
        device = TINY_MESH.submesh(8, 8)
        flows = [FlowSpec((0, y), (7, y), payload) for y in range(n)]
        results = simulate_flows(device, flows)
        for result in results:
            assert result.average_rate <= device.link_bytes_per_cycle + 1e-9


class TestKernelScenarios:
    def test_cannon_wraparound_is_latency_not_bandwidth(self):
        # Full-duplex links: the wraparound suffers ~no contention.
        slowdown = cannon_wraparound_slowdown(WSE2, 100, 1000.0)
        assert slowdown == pytest.approx(1.0, abs=0.05)

    def test_allgather_incast_serializes(self):
        # The tail's single link serializes ~ (N-1) tiles.
        n = 16
        slowdown = allgather_incast_slowdown(WSE2, n, 1000.0)
        assert slowdown > (n - 1) * 0.5
        assert slowdown < (n - 1) * 1.5

    def test_incast_grows_with_row_length(self):
        s8 = allgather_incast_slowdown(WSE2, 8, 500.0)
        s32 = allgather_incast_slowdown(WSE2, 32, 500.0)
        assert s32 > s8

    def test_scenario_input_validation(self):
        with pytest.raises(ConfigurationError):
            cannon_wraparound_slowdown(WSE2, 2, 10.0)
        with pytest.raises(ConfigurationError):
            allgather_incast_slowdown(TINY_MESH, 100, 10.0)
