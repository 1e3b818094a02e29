"""Batched flow engine: structure-of-arrays communication analytics.

Per-flow Python loops in the fabric/cost path used to dominate every
comm phase.  This module re-expresses a phase's flows as flat numpy
buffers — one row per flow for ``(src, bytes, hops, bw_factor)`` plus a
parallel destination expansion for multicasts — and provides the
vectorized pieces the rest of :mod:`repro.mesh` builds on:

* **ingress-port contention** (``np.add.at`` accumulation of wire bytes
  per ``(dst, port)`` key — the busiest receiving link of a phase);
* **port encoding** (:func:`encode_ports`, the array twin of
  :func:`repro.mesh.trace.ingress_port`);
* **segment maxima** (:func:`segment_max`, which the fabric's dense
  batch builder uses for per-flow critical hops).

Per-hop serialization (head latency plus pipelined body) is priced by
:meth:`repro.mesh.fabric.FabricModel.stream_cycles`.  The per-flow
reference for the ingress bottleneck is
:meth:`repro.mesh.trace.CommRecord.ingress_bottleneck_bytes_eager`; the
batched path agrees with it bit for bit, because ``np.add.at`` applies
updates in index order, which is the flow order the dict walk uses
(``tests/test_flow_engine.py``).

The module deliberately imports nothing from the rest of
:mod:`repro.mesh` so that ``trace``/``fabric``/``machine`` can all build
on it without cycles.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError

Coord = Tuple[int, int]

#: Reduction operators an absorb phase may apply, by name.  The string
#: (not the ufunc) is what captured programs store, so replays resolve
#: through this table.
REDUCE_OPS = {"add": np.add, "max": np.maximum}

#: Ingress-port codes.  Under XY (X-then-Y) routing the final approach
#: into a destination is along Y whenever the rows differ, else along X;
#: the code indexes :data:`PORT_TUPLES` to recover the eager path's
#: ``("y", +1)``-style port labels.
PORT_TUPLES = (("y", 1), ("y", -1), ("x", 1), ("x", -1))


def segment_max(
    values: np.ndarray,
    offsets: np.ndarray,
    num_segments: int,
    fill: float = 0.0,
) -> np.ndarray:
    """Per-segment maxima over contiguous segments; empty segments -> ``fill``.

    ``offsets[i]`` is the start of segment ``i``; segment ``i`` ends at
    ``offsets[i + 1]`` (or ``len(values)``).  The reduction runs over
    the non-empty segments' offsets only: an empty segment shares its
    start with the next segment (or sits at ``len(values)``), so its
    offset must not reach ``reduceat`` — it would either produce a
    bogus single-element slot or, clamped, split the *previous*
    segment's range.
    """
    out = np.full(num_segments, fill, dtype=np.float64)
    if len(values) == 0 or num_segments == 0:
        return out
    sizes = np.diff(np.append(offsets, len(values)))
    nonempty = sizes > 0
    if not nonempty.any():
        return out
    # Non-empty offsets are strictly increasing and all < len(values):
    # consecutive ones bound exactly one segment's values (zero-size
    # segments in between contribute no elements).
    reduced = np.maximum.reduceat(
        values.astype(np.float64), offsets[nonempty]
    )
    out[nonempty] = reduced
    return out


def encode_ports(
    src_xy: np.ndarray, dst_xy: np.ndarray
) -> np.ndarray:
    """Vectorized twin of :func:`repro.mesh.trace.ingress_port`.

    ``src_xy`` / ``dst_xy`` are ``(N, 2)`` integer arrays of ``(x, y)``
    coordinates; returns an ``(N,)`` int array of port codes into
    :data:`PORT_TUPLES`.
    """
    dy = dst_xy[:, 1] - src_xy[:, 1]
    dx = dst_xy[:, 0] - src_xy[:, 0]
    return np.where(dy != 0, np.where(dy > 0, 0, 1), np.where(dx > 0, 2, 3))


class FlowBatch:
    """One phase's flows as structure-of-arrays buffers.

    Per-flow arrays (length ``num_flows``):

    * ``src`` — ``(F, 2)`` source coordinates;
    * ``nbytes`` — per-destination payload bytes (int64);
    * ``hops`` — critical-path hops to the farthest destination (int64;
      physical hops on a remapped topology, detours included);
    * ``bw_factor`` — worst surviving bandwidth fraction on the route
      (float64; the ``bw_derate`` column of a degraded fabric).

    Destination expansion (length ``num_dsts``; a multicast contributes
    one row per destination):

    * ``dst`` — ``(D, 2)`` destination coordinates;
    * ``dst_flow`` — index into the per-flow arrays.

    The arrays are treated as immutable once built; every derived
    computation allocates its own outputs.
    """

    __slots__ = (
        "src",
        "nbytes",
        "hops",
        "bw_factor",
        "dst",
        "dst_flow",
        "num_flows",
        "num_dsts",
        "_ports",
        "_wire",
    )

    def __init__(
        self,
        src: np.ndarray,
        nbytes: np.ndarray,
        hops: np.ndarray,
        bw_factor: np.ndarray,
        dst: np.ndarray,
        dst_flow: np.ndarray,
    ):
        self.src = src
        self.nbytes = nbytes
        self.hops = hops
        self.bw_factor = bw_factor
        self.dst = dst
        self.dst_flow = dst_flow
        self.num_flows = int(len(nbytes))
        self.num_dsts = int(len(dst_flow))
        self._ports: Optional[np.ndarray] = None
        self._wire: Optional[np.ndarray] = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence) -> "FlowBatch":
        """Build from :class:`~repro.mesh.trace.FlowRecord`-like objects.

        Only the duck-typed attributes ``src``/``dsts``/``hops``/
        ``nbytes``/``bw_factor`` are read, so tests can pass lightweight
        stand-ins.
        """
        src: List[Coord] = []
        nbytes: List[int] = []
        hops: List[int] = []
        bw: List[float] = []
        dst: List[Coord] = []
        dst_flow: List[int] = []
        for i, rec in enumerate(records):
            src.append(rec.src)
            nbytes.append(rec.nbytes)
            hops.append(rec.hops)
            bw.append(rec.bw_factor)
            for d in rec.dsts:
                dst.append(d)
                dst_flow.append(i)
        batch = cls(
            src=np.array(src, dtype=np.int64).reshape(-1, 2),
            nbytes=np.array(nbytes, dtype=np.int64),
            hops=np.array(hops, dtype=np.int64),
            bw_factor=np.array(bw, dtype=np.float64),
            dst=np.array(dst, dtype=np.int64).reshape(-1, 2),
            dst_flow=np.array(dst_flow, dtype=np.int64),
        )
        return batch

    # -- derived columns ------------------------------------------------
    def ports(self) -> np.ndarray:
        """Ingress-port code per destination row (lazy, cached)."""
        if self._ports is None:
            self._ports = encode_ports(self.src[self.dst_flow], self.dst)
        return self._ports

    def wire_bytes(self) -> np.ndarray:
        """Per-flow link-time bytes: ``nbytes / bw_factor`` (lazy, cached)."""
        if self._wire is None:
            self._wire = self.nbytes / self.bw_factor
        return self._wire

    # -- phase analytics ------------------------------------------------
    def ingress_bottleneck_bytes(self) -> float:
        """Batched twin of ``CommRecord.ingress_bottleneck_bytes``.

        Accumulates wire bytes per ``(dst, port)`` key with
        ``np.add.at`` (updates apply in destination order, matching the
        eager dict accumulation bit for bit) and takes the busiest key,
        floored by the largest single flow.
        """
        if self.num_flows == 0:
            return 0.0
        wire = self.wire_bytes()
        per_flow = float(wire.max())
        if self.num_dsts == 0:
            return per_flow
        # One int64 key per (dst, ingress port) destination row.
        dx = self.dst[:, 0]
        keys = (self.dst[:, 1] * (int(dx.max()) + 1) + dx) * 4 + self.ports()
        uniq, inv = np.unique(keys, return_inverse=True)
        acc = np.zeros(len(uniq), dtype=np.float64)
        np.add.at(acc, inv, wire[self.dst_flow])
        return max(float(acc.max()), per_flow)


def validate_batch(batch: FlowBatch) -> None:
    """Structural sanity checks (used by tests and synthetic callers)."""
    if batch.src.shape != (batch.num_flows, 2):
        raise SimulationError("FlowBatch src must be (num_flows, 2)")
    if batch.dst.shape != (batch.num_dsts, 2):
        raise SimulationError("FlowBatch dst must be (num_dsts, 2)")
    if len(batch.hops) != batch.num_flows or len(batch.bw_factor) != batch.num_flows:
        raise SimulationError("FlowBatch per-flow columns must align")
    if batch.num_dsts and (
        batch.dst_flow.min() < 0 or batch.dst_flow.max() >= batch.num_flows
    ):
        raise SimulationError("FlowBatch dst_flow indexes out of range")
    if (batch.nbytes < 0).any():
        raise SimulationError("FlowBatch payload bytes must be non-negative")
    if ((batch.bw_factor <= 0.0) | (batch.bw_factor > 1.0)).any():
        raise SimulationError("FlowBatch bw_factor must be in (0, 1]")
