"""Property-based differential tests for the batched flow engine.

Random flow sets — fan-in, fan-out, zero-byte payloads, duplicate
``(src, dst)`` pairs, single-flow phases — are pushed through both the
batched SoA analytics and a naive per-flow reference written directly
from the definitions (independent of the eager implementations in
:mod:`repro.mesh.trace`, which have their own sweep in
``tests/test_flow_engine.py``).  Payload bytes are integers and
bandwidth factors dyadic, so every comparison is exact equality — the
accumulation order of ``np.add.at`` matches the reference walk bit for
bit.  The engine must also never mutate its input arrays.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mesh.flow_engine import (
    FlowBatch,
    PORT_TUPLES,
    encode_ports,
    segment_max,
    validate_batch,
)
from repro.mesh.trace import ingress_port

MESH = 6

coord = st.tuples(st.integers(0, MESH - 1), st.integers(0, MESH - 1))

#: Dyadic bandwidth fractions: binary fractions keep wire-byte division
#: exact, so batched and reference sums are comparable with ``==``.
bw = st.sampled_from([1.0, 0.5, 0.25, 0.125])


class _Flow:
    """Duck-typed stand-in for :class:`repro.mesh.trace.FlowRecord`."""

    def __init__(self, src, dsts, nbytes, hops, bw_factor):
        self.src = src
        self.dsts = tuple(dsts)
        self.nbytes = nbytes
        self.hops = hops
        self.bw_factor = bw_factor


@st.composite
def flow_sets(draw, min_flows=0, max_flows=12, multicast=True):
    """Random flow lists; zero-byte flows and duplicate pairs included."""
    n = draw(st.integers(min_flows, max_flows))
    flows = []
    for _ in range(n):
        src = draw(coord)
        max_dsts = 3 if multicast else 1
        dsts = draw(
            st.lists(coord.filter(lambda c: c != src),
                     min_size=1, max_size=max_dsts)
        )
        flows.append(_Flow(
            src=src,
            dsts=dsts,
            nbytes=draw(st.integers(0, 512)),  # zero-byte flows allowed
            hops=draw(st.integers(0, 10)),
            bw_factor=draw(bw),
        ))
    return flows


def _reference_ingress(flows) -> float:
    """Ingress bottleneck from the definition: per-(dst, port) wire bytes."""
    if not flows:
        return 0.0
    acc = defaultdict(float)
    for f in flows:
        for d in f.dsts:
            acc[(d, ingress_port(f.src, d))] += f.nbytes / f.bw_factor
    per_flow = max(f.nbytes / f.bw_factor for f in flows)
    return max(max(acc.values(), default=0.0), per_flow)


def _snapshot(batch: FlowBatch):
    return tuple(
        arr.copy() for arr in (
            batch.src, batch.nbytes, batch.hops, batch.bw_factor,
            batch.dst, batch.dst_flow,
        )
    )


def _assert_unchanged(batch: FlowBatch, before) -> None:
    after = (batch.src, batch.nbytes, batch.hops, batch.bw_factor,
             batch.dst, batch.dst_flow)
    for a, b in zip(after, before):
        assert np.array_equal(a, b)


class TestIngressProperty:
    @given(flows=flow_sets())
    @settings(max_examples=120, deadline=None)
    def test_batched_equals_reference(self, flows):
        batch = FlowBatch.from_records(flows)
        validate_batch(batch)
        before = _snapshot(batch)
        assert batch.ingress_bottleneck_bytes() == _reference_ingress(flows)
        _assert_unchanged(batch, before)

    @given(
        dst=coord,
        srcs=st.lists(coord, min_size=2, max_size=8),
        nbytes=st.integers(0, 256),
    )
    @settings(max_examples=60, deadline=None)
    def test_fan_in(self, dst, srcs, nbytes):
        flows = [
            _Flow(src=s, dsts=(dst,), nbytes=nbytes, hops=1, bw_factor=1.0)
            for s in srcs if s != dst
        ]
        if not flows:
            return
        batch = FlowBatch.from_records(flows)
        assert batch.ingress_bottleneck_bytes() == _reference_ingress(flows)

    @given(
        src=coord,
        dsts=st.lists(coord, min_size=1, max_size=10, unique=True),
        nbytes=st.integers(1, 256),
        factor=bw,
    )
    @settings(max_examples=60, deadline=None)
    def test_fan_out_multicast(self, src, dsts, nbytes, factor):
        dsts = [d for d in dsts if d != src]
        if not dsts:
            return
        flows = [_Flow(src=src, dsts=tuple(dsts), nbytes=nbytes,
                       hops=3, bw_factor=factor)]
        batch = FlowBatch.from_records(flows)
        assert batch.num_flows == 1
        assert batch.num_dsts == len(dsts)
        assert batch.ingress_bottleneck_bytes() == _reference_ingress(flows)

    @given(src=coord, dst=coord, copies=st.integers(2, 6),
           nbytes=st.integers(0, 128))
    @settings(max_examples=60, deadline=None)
    def test_duplicate_src_dst_pairs_serialize(self, src, dst, copies, nbytes):
        if src == dst:
            return
        flows = [
            _Flow(src=src, dsts=(dst,), nbytes=nbytes, hops=2, bw_factor=1.0)
            for _ in range(copies)
        ]
        batch = FlowBatch.from_records(flows)
        got = batch.ingress_bottleneck_bytes()
        assert got == _reference_ingress(flows)
        assert got == float(copies * nbytes)

    def test_empty_flow_set(self):
        batch = FlowBatch.from_records([])
        assert batch.ingress_bottleneck_bytes() == 0.0
        assert batch.num_flows == 0 and batch.num_dsts == 0


class TestPortEncodingProperty:
    @given(src=coord, dst=coord)
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_ingress_port(self, src, dst):
        if src == dst:
            return
        code = encode_ports(
            np.array([src], dtype=np.int64), np.array([dst], dtype=np.int64)
        )[0]
        assert PORT_TUPLES[code] == ingress_port(src, dst)


class TestSegmentMaxProperty:
    @given(
        data=st.data(),
        num_segments=st.integers(0, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_loop(self, data, num_segments):
        sizes = [
            data.draw(st.integers(0, 5)) for _ in range(num_segments)
        ]
        values = np.array(
            [data.draw(st.integers(-100, 100)) for _ in range(sum(sizes))],
            dtype=np.float64,
        )
        offsets = np.cumsum([0] + sizes[:-1]).astype(np.int64) if sizes \
            else np.zeros(0, dtype=np.int64)
        got = segment_max(values, offsets, num_segments, fill=-7.0)
        start = 0
        for i, size in enumerate(sizes):
            seg = values[start:start + size]
            start += size
            assert got[i] == (seg.max() if size else -7.0)
