"""Fluid-flow NoC simulator: link contention beyond the closed-form model.

The analytic cost model (:mod:`repro.mesh.cost_model`) prices each
communication phase in isolation: head latency plus payload over one
link.  Real phases carry many concurrent streams, and streams that share
a link split its bandwidth.  This module simulates that: flows are fluid
streams over their XY routes, each link's capacity is divided
**max-min fairly** among the flows crossing it, and completion times
come from progressive filling (re-solving the allocation each time a
flow finishes).

It serves two purposes:

* **Validation** — uncontended flows must complete in exactly the
  closed-form ``hops * hop_cycles + bytes / link_bw`` cycles, and the
  tests pin this.
* **Justification of contention constants** — allgather's incast
  funnels a whole row through the tail core's one ingress link, the
  serialization the allgather-GEMM plan charges; Cannon's wraparound
  runs against the neighbour shifts on full-duplex links, so it costs
  latency but no bandwidth, and the cyclic-GEMM plan charges none.

There is one solver: the classic scalar water-filling algorithm.  With
F flows and L touched links one progressive-filling round costs
O(F * L) and at most F rounds run, fine for phase-sized flow sets; only
the validation bench (``benchmarks/test_noc_validation.py``) and the
tests run it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.plmr import PLMRDevice
from repro.errors import ConfigurationError, SimulationError
from repro.mesh.topology import Coord, MeshTopology

#: A directed link between adjacent cores.
Link = Tuple[Coord, Coord]


@dataclass(frozen=True)
class FlowSpec:
    """One stream: ``payload_bytes`` from ``src`` to ``dst`` (XY routed)."""

    src: Coord
    dst: Coord
    payload_bytes: float
    name: str = ""

    def __post_init__(self) -> None:
        if not 0 < self.payload_bytes < math.inf:
            raise ConfigurationError(
                f"payload_bytes must be finite and > 0, got {self.payload_bytes}"
            )


@dataclass(frozen=True)
class FlowResult:
    """Outcome of one simulated flow."""

    spec: FlowSpec
    hops: int
    completion_cycles: float
    average_rate: float  # bytes per cycle actually achieved

    # Populated by the simulator: payload / full link bandwidth.
    _full_link_cycles: float = 0.0

    @property
    def uncontended_cycles(self) -> float:
        """What the closed-form model charges for this flow in isolation."""
        return self.hops + self._full_link_cycles

    @property
    def slowdown(self) -> float:
        """Completion relative to the uncontended closed form (>= ~1)."""
        ideal = self.uncontended_cycles
        return self.completion_cycles / ideal if ideal > 0 else 1.0


def _route_links(topology: MeshTopology, src: Coord, dst: Coord) -> List[Link]:
    route = topology.xy_route(src, dst)
    return [(route[i], route[i + 1]) for i in range(len(route) - 1)]


def _max_min_rates(
    flow_links: Dict[int, List[Link]],
    capacity: float,
) -> Dict[int, float]:
    """Max-min fair rates for the given flows (water-filling)."""
    active = set(flow_links)
    remaining: Dict[Link, float] = {}
    users: Dict[Link, set] = {}
    for fid, links in flow_links.items():
        for link in links:
            remaining.setdefault(link, capacity)
            users.setdefault(link, set()).add(fid)
    rates: Dict[int, float] = {}
    # Flows with no links (src == dst) are rate-unbounded; give them the
    # full local copy bandwidth.
    for fid, links in flow_links.items():
        if not links:
            rates[fid] = capacity
            active.discard(fid)
    while active:
        # Find the bottleneck link: smallest fair share among its users.
        bottleneck_share = None
        bottleneck_link = None
        for link, flow_ids in users.items():
            live = flow_ids & active
            if not live:
                continue
            share = remaining[link] / len(live)
            if bottleneck_share is None or share < bottleneck_share:
                bottleneck_share = share
                bottleneck_link = link
        if bottleneck_link is None:
            raise SimulationError("active flows without links")  # pragma: no cover
        saturated = users[bottleneck_link] & active
        for fid in saturated:
            rates[fid] = bottleneck_share
            active.discard(fid)
            for link in flow_links[fid]:
                remaining[link] -= bottleneck_share
                # Guard tiny negatives from float error.
                if remaining[link] < 0:
                    remaining[link] = 0.0
    return rates


def simulate_flows(
    device: PLMRDevice, flows: Sequence[FlowSpec]
) -> List[FlowResult]:
    """Simulate concurrent flows; returns per-flow completion cycles.

    Progressive filling: compute max-min fair rates, advance to the
    first flow completion, remove it, re-solve; repeat.  Head latency
    (``hops * hop_cycles``) is added after the fluid transfer finishes,
    matching the cost model's wavefront treatment.
    """
    topology = MeshTopology(device.mesh_width, device.mesh_height)
    capacity = device.link_bytes_per_cycle
    flow_links: Dict[int, List[Link]] = {}
    remaining_bytes: Dict[int, float] = {}
    for fid, flow in enumerate(flows):
        flow_links[fid] = _route_links(topology, flow.src, flow.dst)
        remaining_bytes[fid] = flow.payload_bytes

    finish_time: Dict[int, float] = {}
    now = 0.0
    active = set(flow_links)
    while active:
        rates = _max_min_rates(
            {fid: flow_links[fid] for fid in active}, capacity
        )
        # Time until the next flow drains at current rates.
        dt, next_done = None, None
        for fid in active:
            rate = rates[fid]
            if rate <= 0:
                raise SimulationError("zero-rate flow")  # pragma: no cover
            t = remaining_bytes[fid] / rate
            if dt is None or t < dt:
                dt, next_done = t, fid
        assert dt is not None and next_done is not None
        for fid in active:
            remaining_bytes[fid] -= rates[fid] * dt
        now += dt
        finish_time[next_done] = now
        # Collect any simultaneous finishers (float-tolerant).
        done = {fid for fid in active if remaining_bytes[fid] <= 1e-9}
        for fid in done:
            finish_time[fid] = now
        active -= done

    results = []
    for fid, flow in enumerate(flows):
        hops = len(flow_links[fid])
        completion = finish_time[fid] + hops * device.hop_cycles
        result = FlowResult(
            spec=flow,
            hops=hops,
            completion_cycles=completion,
            average_rate=flow.payload_bytes / max(finish_time[fid], 1e-12),
        )
        object.__setattr__(result, "_full_link_cycles",
                           flow.payload_bytes / capacity)
        results.append(result)
    return results


def phase_makespan(device: PLMRDevice, flows: Sequence[FlowSpec]) -> float:
    """Cycles until every flow of a phase completes (its critical path)."""
    if not flows:
        return 0.0
    return max(r.completion_cycles for r in simulate_flows(device, flows))


def cannon_wraparound_slowdown(device: PLMRDevice, row_length: int,
                               tile_bytes: float) -> float:
    """Measured contention of Cannon's wraparound on one mesh row.

    Builds the row's steady-state shift: every core sends its tile one
    hop west, and the head core's tile streams all the way back east.
    On full-duplex links the wraparound travels against the shifts, so
    the simulator finds (and a test pins) slowdown ~= 1 — the wraparound
    costs Cannon its O(N) *latency*, not bandwidth.  This is why the
    cyclic-GEMM cost plan charges hop distance but no contention factor.
    """
    if row_length < 3:
        raise ConfigurationError("row must have at least 3 cores")
    if row_length > device.mesh_width:
        raise ConfigurationError("row longer than the device fabric")
    flows = [
        FlowSpec(src=(x, 0), dst=(x - 1, 0), payload_bytes=tile_bytes,
                 name=f"shift{x}")
        for x in range(1, row_length)
    ]
    flows.append(
        FlowSpec(src=(0, 0), dst=(row_length - 1, 0),
                 payload_bytes=tile_bytes, name="wraparound")
    )
    results = simulate_flows(device, flows)
    wrap = next(r for r in results if r.spec.name == "wraparound")
    return wrap.slowdown


def allgather_incast_slowdown(device: PLMRDevice, row_length: int,
                              tile_bytes: float) -> float:
    """Measured incast contention of a row allgather at the tail core.

    Every core streams its tile to the row's last core; all those
    streams funnel through the tail's single incoming link, so the last
    tile to finish is delayed ~(row_length - 1)x versus running alone —
    the bandwidth half of allgather-GEMM's non-compliance (the
    allgather-GEMM plan charges exactly this serialized payload).
    """
    if row_length < 2:
        raise ConfigurationError("row must have at least 2 cores")
    if row_length > device.mesh_width:
        raise ConfigurationError("row longer than the device fabric")
    tail = (row_length - 1, 0)
    flows = [
        FlowSpec(src=(x, 0), dst=tail, payload_bytes=tile_bytes,
                 name=f"gather{x}")
        for x in range(row_length - 1)
    ]
    results = simulate_flows(device, flows)
    return max(r.slowdown for r in results)
