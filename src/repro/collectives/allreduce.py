"""Reduction collectives on mesh lines: pipeline, ring, and two-way K-tree.

A distributed GEMV ends with an allreduce of partial result vectors along
one mesh axis (paper Section 6).  Three schemes are implemented, matching
Figure 8:

* :func:`pipeline_reduce` — the Cerebras-demo default: a linear chain of
  sends and adds.  O(N) sequential add stages -> violates L.
* :func:`ring_allreduce` — the GPU-pod default: reduce-scatter followed
  by allgather around a ring.  2(N-1) sequential steps -> violates L
  (and the ring's wraparound edge spans the whole physical line).
* :func:`ktree_reduce` — the paper's **two-way K-tree**: K levels of
  group reductions, each group reduced *from both ends simultaneously*
  toward its root.  The longest aggregation path has
  ``O(K * ceil(N^(1/K)) / 2)`` add stages, and a non-root core needs only
  its level's route colour (roots need up to K+1) -> satisfies L and R.

All three run on any number of parallel lines simultaneously (every mesh
row, or every column), with every stage executed as a single machine
phase so the trace reflects true parallelism.

Numerics note: distributed float reduction reorders additions, so results
are compared to references with floating-point tolerances; integer and
fp64 tests are exact.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.mesh.core_sim import Core
from repro.mesh.fabric import Flow
from repro.mesh.flow_engine import REDUCE_OPS as _REDUCE_OPS
from repro.mesh.machine import MeshMachine
from repro.mesh.topology import Coord

Lines = Sequence[Sequence[Coord]]


def _resolve_op(op: str):
    try:
        return _REDUCE_OPS[op]
    except KeyError:
        raise ConfigurationError(
            f"unknown reduce op {op!r}; choose from {sorted(_REDUCE_OPS)}"
        ) from None


def _check_lines(lines: Lines) -> int:
    if not lines:
        raise ShapeError("no lines given")
    length = len(lines[0])
    for line in lines:
        if len(line) != length:
            raise ShapeError("all lines must have the same length")
    if length < 1:
        raise ShapeError("lines must contain at least one core")
    return length


# ---------------------------------------------------------------------------
# Pipeline (linear) reduce — the Cerebras default (Figure 8, case 1)
# ---------------------------------------------------------------------------

def pipeline_reduce(
    machine: MeshMachine,
    lines: Lines,
    name: str,
    pattern: str = "pipeline-reduce",
    op: str = "add",
) -> List[Coord]:
    """Reduce ``name`` along each line into its last core, chain style.

    Stage ``t`` moves the running sum from position ``t`` to ``t + 1``;
    after ``len(line) - 1`` sequential stages the tail core holds the
    total.  Returns the root (tail) coordinate of each line.
    """
    length = _check_lines(lines)
    _resolve_op(op)  # validate up front with the collectives' error type
    inbox = f"{name}.pipe_in"
    with machine.phase(pattern, kind="reduce", pipelined=True):
        for t in range(length - 1):
            flows = [
                Flow.unicast(line[t], line[t + 1], name, inbox) for line in lines
            ]
            machine.communicate(pattern, flows)
            machine.absorb(
                f"{pattern}-add",
                [(line[t + 1], name, inbox) for line in lines],
                op=op,
                reads=(name, inbox),
                writes=(name,),
            )
    return [line[-1] for line in lines]


# ---------------------------------------------------------------------------
# Ring allreduce — the GPU-pod default (Figure 8, case 2)
# ---------------------------------------------------------------------------

def ring_allreduce(
    machine: MeshMachine,
    lines: Lines,
    name: str,
    pattern: str = "ring-allreduce",
) -> None:
    """Reduce-scatter + allgather around a ring embedded in each line.

    After completion every core on every line holds the full elementwise
    sum.  The ring's wraparound edge (tail back to head) spans the whole
    physical line, and 2(N-1) sequential steps are required — both of
    which the trace records, demonstrating the L violation.
    """
    length = _check_lines(lines)
    if length == 1:
        return
    inbox = f"{name}.ring_in"

    def chunk_slices(total: int) -> List[slice]:
        bounds = np.linspace(0, total, length + 1).astype(int)
        return [slice(int(bounds[i]), int(bounds[i + 1])) for i in range(length)]

    # Phase 1: reduce-scatter.  After step s, core i has accumulated chunk
    # (i - s - 1) mod N from its predecessors.  The rounds have a data
    # dependency between steps (pipelined=False in cost-model terms).
    with machine.phase(
        f"{pattern}-reduce-scatter", kind="reduce", pipelined=False
    ):
        for s in range(length - 1):
            flows = []
            adds: List[Tuple[Coord, int]] = []
            for line in lines:
                for i, src in enumerate(line):
                    chunk_id = (i - s) % length
                    dst_idx = (i + 1) % length
                    dst = line[dst_idx]
                    tile = machine.core(src).load(name)
                    slices = chunk_slices(tile.shape[-1])
                    payload_name = f"{inbox}.{chunk_id}"
                    machine.place(payload_name, src, tile[..., slices[chunk_id]])
                    flows.append(Flow.unicast(src, dst, payload_name, payload_name))
                    adds.append((dst, chunk_id))
            machine.communicate(pattern, flows)

            def reduce_chunk(core: Core, pending=tuple(adds)) -> float:
                macs = 0.0
                for coord, chunk_id in pending:
                    if coord != core.coord:
                        continue
                    tile = core.load(name)
                    slices = chunk_slices(tile.shape[-1])
                    payload_name = f"{inbox}.{chunk_id}"
                    incoming = core.load(payload_name)
                    tile[..., slices[chunk_id]] += incoming
                    macs += float(incoming.size)
                    core.free(payload_name)
                return macs

            machine.compute(f"{pattern}-add", [dst for dst, _ in adds], reduce_chunk)
            # Free the staged outgoing chunk copies at the sources.
            for line in lines:
                for i in range(length):
                    chunk_id = (i - s) % length
                    machine.core(line[i]).free(f"{inbox}.{chunk_id}")

    # Phase 2: allgather.  Core i now owns the fully reduced chunk
    # (i + 1) mod N; circulate the finished chunks.
    with machine.phase(f"{pattern}-allgather", kind="reduce", pipelined=False):
        for s in range(length - 1):
            flows = []
            writes: List[Tuple[Coord, int]] = []
            for line in lines:
                for i, src in enumerate(line):
                    chunk_id = (i + 1 - s) % length
                    dst = line[(i + 1) % length]
                    tile = machine.core(src).load(name)
                    slices = chunk_slices(tile.shape[-1])
                    payload_name = f"{inbox}.g{chunk_id}"
                    machine.place(payload_name, src, tile[..., slices[chunk_id]])
                    flows.append(Flow.unicast(src, dst, payload_name, payload_name))
                    writes.append((dst, chunk_id))
            machine.communicate(pattern, flows)

            def install_chunk(core: Core, pending=tuple(writes)) -> float:
                for coord, chunk_id in pending:
                    if coord != core.coord:
                        continue
                    tile = core.load(name)
                    slices = chunk_slices(tile.shape[-1])
                    payload_name = f"{inbox}.g{chunk_id}"
                    tile[..., slices[chunk_id]] = core.load(payload_name)
                    core.free(payload_name)
                return 0.0

            machine.compute(
                f"{pattern}-copy", [dst for dst, _ in writes], install_chunk
            )
            for line in lines:
                for i in range(length):
                    chunk_id = (i + 1 - s) % length
                    machine.core(line[i]).free(f"{inbox}.g{chunk_id}")


# ---------------------------------------------------------------------------
# Two-way K-tree reduce — the paper's design (Figure 8, case 3)
# ---------------------------------------------------------------------------

def ktree_group_sizes(length: int, k: int) -> List[int]:
    """Group size at each tree level for a line of ``length`` cores.

    Levels use groups of ``ceil(length ** (1/k))``; extra levels are
    appended in the rare case rounding leaves more than one root after
    ``k`` levels, so reduction always completes for any ``length``.
    """
    if length < 1:
        raise ShapeError("length must be positive")
    if k < 1:
        raise ConfigurationError(f"K must be at least 1, got {k}")
    if length == 1:
        return []
    group = max(2, math.ceil(length ** (1.0 / k)))
    sizes = []
    remaining = length
    while remaining > 1:
        sizes.append(group)
        remaining = math.ceil(remaining / group)
    return sizes


def _group_root_index(size: int) -> int:
    """Root position inside a group: the middle core."""
    return size // 2


def two_way_group_reduce(
    machine: MeshMachine,
    groups: Sequence[Sequence[Coord]],
    name: str,
    pattern: str,
    op: str = "add",
) -> List[Coord]:
    """Reduce each group into its middle core from both ends at once.

    All groups advance stage-synchronously; each stage is one machine
    phase, so the trace's stage count is the aggregation critical path.
    Returns each group's root coordinate.
    """
    _resolve_op(op)  # validate up front with the collectives' error type
    roots: List[Coord] = []
    # Per-group frontier state: (left_index, right_index, root_index).
    state: List[List[int]] = []
    max_stages = 0
    for group in groups:
        size = len(group)
        root = _group_root_index(size)
        state.append([0, size - 1, root])
        max_stages = max(max_stages, max(root, size - 1 - root))
        roots.append(group[root])

    inbox_l = f"{name}.tree_inL"
    inbox_r = f"{name}.tree_inR"
    with machine.phase(pattern, kind="reduce", pipelined=True):
        for _stage in range(max_stages):
            flows: List[Flow] = []
            items: List[Tuple[Coord, str, str]] = []
            for group, st in zip(groups, state):
                left, right, root = st
                if left < root:
                    dst = group[left + 1]
                    flows.append(Flow.unicast(group[left], dst, name, inbox_l))
                    items.append((dst, name, inbox_l))
                    st[0] = left + 1
                if right > root:
                    dst = group[right - 1]
                    flows.append(Flow.unicast(group[right], dst, name, inbox_r))
                    items.append((dst, name, inbox_r))
                    st[1] = right - 1
            if not flows:
                break
            machine.communicate(pattern, flows)
            # Items are appended in flow order, so the delivery and the
            # absorb pair up 1:1 — exactly the shape the compiled replay
            # runs as one tree level on the accumulator's slab.
            machine.absorb(
                f"{pattern}-add", items, op=op,
                reads=(name, inbox_l, inbox_r), writes=(name,),
            )
    return roots


def ktree_reduce(
    machine: MeshMachine,
    lines: Lines,
    name: str,
    k: int = 2,
    pattern_prefix: str = "ktree",
    op: str = "add",
) -> List[Coord]:
    """Two-way K-tree reduce of ``name`` along each line; returns roots.

    Level 1 partitions each line into groups of ``ceil(N^(1/K))`` and
    reduces each group two-way into its middle core; level 2 does the
    same over the level-1 roots (whose physical spacing is one group
    width, so stage hop distances grow geometrically while stage *counts*
    stay at ``ceil(group/2)``); and so on.  A core participates in the
    route colour of its level only — roots accumulate at most K+1
    colours, which is the R bound the paper quotes.
    """
    length = _check_lines(lines)
    if length == 1:
        return [line[0] for line in lines]
    sizes = ktree_group_sizes(length, k)
    active: List[List[Coord]] = [list(line) for line in lines]
    for level, group_size in enumerate(sizes, start=1):
        groups: List[List[Coord]] = []
        owners: List[int] = []  # which line each group belongs to
        for line_idx, coords in enumerate(active):
            for start in range(0, len(coords), group_size):
                groups.append(coords[start:start + group_size])
                owners.append(line_idx)
        pattern = f"{pattern_prefix}-L{level}"
        roots = two_way_group_reduce(machine, groups, name, pattern, op=op)
        next_active: List[List[Coord]] = [[] for _ in active]
        for owner, root in zip(owners, roots):
            next_active[owner].append(root)
        active = next_active
    return [coords[0] for coords in active]


def broadcast_from_root(
    machine: MeshMachine,
    lines: Lines,
    roots: Sequence[Coord],
    name: str,
    pattern: str = "root-broadcast",
) -> None:
    """Multicast each line's root tile back to the whole line.

    The optional final step of the K-tree allreduce (Section 6.2 step
    3.iii), used when a subsequent GEMV needs the full vector everywhere.
    """
    _check_lines(lines)
    if len(roots) != len(lines):
        raise ShapeError("one root per line required")
    flows = []
    for line, root in zip(lines, roots):
        dsts = [c for c in line if c != root]
        if dsts:
            flows.append(Flow.multicast(root, dsts, name, name))
    with machine.phase(pattern):
        if flows:
            machine.communicate(pattern, flows)
        else:
            machine.barrier(pattern)
