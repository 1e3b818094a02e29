"""Analytic phase plans for the reduction collectives.

Each builder mirrors the step structure of its functional twin in
:mod:`repro.collectives.allreduce` exactly — same stage counts, same hop
distances — so the cost model charges for what the machine actually does.
The unit tests cross-check builders against functional traces.

The K-tree and broadcast builders also accept an int array of line
lengths (and array payloads or repeats): an axis plan, priced
elementwise by :mod:`repro.mesh.cost_model`.  A phase absent from some
elements' scalar plans carries ``repeats=0`` there.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.collectives.allreduce import ktree_group_sizes
from repro.mesh.cost_model import (
    CommPhase,
    Phase,
    ReducePhase,
    as_float,
    present,
    where,
)


def pipeline_reduce_plan(
    length: int, payload_bytes: float, payload_elems: float
) -> List[Phase]:
    """Linear chain: ``length - 1`` sequential one-hop add stages."""
    if length <= 1:
        return []
    return [
        ReducePhase(
            label="pipeline-reduce",
            stages=length - 1,
            stage_hop_distance=1.0,
            payload_bytes=payload_bytes,
            stage_add_elems=payload_elems,
        )
    ]


def ring_allreduce_plan(
    length: int, payload_bytes: float, payload_elems: float
) -> List[Phase]:
    """Ring reduce-scatter + allgather: ``2(length - 1)`` chunk steps.

    Chunks are ``1/length`` of the payload; the ring's wraparound edge
    makes the per-step worst hop the full line length on a mesh (no torus
    links), which is charged on every step through ``stage_hop_distance``.
    """
    if length <= 1:
        return []
    chunk_bytes = payload_bytes / length
    chunk_elems = payload_elems / length
    return [
        ReducePhase(
            label="ring-reduce-scatter",
            stages=length - 1,
            stage_hop_distance=float(length - 1),
            payload_bytes=chunk_bytes,
            stage_add_elems=chunk_elems,
            pipelined=False,
        ),
        ReducePhase(
            label="ring-allgather",
            stages=length - 1,
            stage_hop_distance=float(length - 1),
            payload_bytes=chunk_bytes,
            stage_add_elems=0.0,
            pipelined=False,
        ),
    ]


@lru_cache(maxsize=None)
def _ktree_levels(length: int, k: int) -> Tuple[Tuple[int, int, float], ...]:
    """``(level, stages, spacing)`` of each K-tree level that has stages.

    Stage counts mirror :func:`~repro.collectives.allreduce.ktree_reduce`:
    with group size ``g`` and root at ``g // 2`` the two frontiers take
    ``max(g // 2, g - 1 - g // 2)`` stages; active cores at level ``l``
    are spaced ``g**(l-1)`` positions apart, so that is the per-stage hop
    distance.
    """
    if length <= 1:
        return ()
    levels = []
    spacing = 1.0
    remaining = length
    for level, group in enumerate(ktree_group_sizes(length, k), start=1):
        size = min(group, remaining)
        root = size // 2
        stages = max(root, size - 1 - root)
        if stages > 0:
            levels.append((level, stages, spacing))
        spacing *= group
        remaining = math.ceil(remaining / group)
    return tuple(levels)


def ktree_reduce_plan(
    length, payload_bytes, payload_elems, k: int = 2, repeats=1
) -> List[Phase]:
    """Two-way K-tree: per level, ``ceil(group/2)`` stages of growing span.

    ``length`` may be an int axis: level ``l``'s phase then carries each
    element's stages and spacing, and zero repeats where that element's
    tree has no level ``l``.
    """
    if not isinstance(length, np.ndarray):
        return [
            ReducePhase(
                label=f"ktree-L{level}",
                stages=stages,
                stage_hop_distance=spacing,
                payload_bytes=payload_bytes,
                stage_add_elems=payload_elems,
                repeats=repeats,
            )
            for level, stages, spacing in _ktree_levels(length, k)
        ]
    values, inverse = np.unique(length, return_inverse=True)
    trees = [_ktree_levels(int(v), k) for v in values]
    depth = max((tree[-1][0] for tree in trees if tree), default=0)
    stages = np.zeros((len(values), depth), dtype=np.int64)
    spacing = np.ones((len(values), depth))
    for row, tree in enumerate(trees):
        for level, count, span in tree:
            stages[row, level - 1] = count
            spacing[row, level - 1] = span
    stages, spacing = stages[inverse], spacing[inverse]
    return [
        ReducePhase(
            label=f"ktree-L{level}",
            stages=stages[:, level - 1],
            stage_hop_distance=spacing[:, level - 1],
            payload_bytes=payload_bytes,
            stage_add_elems=payload_elems,
            repeats=np.where(stages[:, level - 1] > 0, repeats, 0),
        )
        for level in range(1, depth + 1)
    ]


def root_broadcast_plan(length, payload_bytes, repeats=1) -> List[Phase]:
    """Multicast from a line's root back to the whole line: one phase."""
    if not present(length > 1):
        return []
    return [
        CommPhase(
            label="root-broadcast",
            hop_distance=as_float(length - 1),
            payload_bytes=payload_bytes,
            repeats=where(length > 1, repeats, 0),
        )
    ]


def ktree_stage_count(length: int, k: int = 2) -> int:
    """Total sequential add stages of the K-tree (its L metric)."""
    total = 0
    remaining = length
    for group in ktree_group_sizes(length, k):
        size = min(group, remaining)
        root = size // 2
        total += max(root, size - 1 - root)
        remaining = math.ceil(remaining / group)
    return total
