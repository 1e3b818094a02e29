"""Collective communication: shifts, broadcasts, allreduce, allgather."""

from repro.collectives.interleave import (
    identity_placement,
    interleave,
    interleave_placement,
    inverse_placement,
    ring_dilation,
    shift_mapping_1d,
)
from repro.collectives.primitives import (
    column_broadcast,
    column_ring_shift,
    point_to_point,
    row_broadcast,
    row_ring_shift,
)
from repro.collectives.allreduce import (
    broadcast_from_root,
    ktree_group_sizes,
    ktree_reduce,
    pipeline_reduce,
    ring_allreduce,
    two_way_group_reduce,
)
from repro.collectives.allgather import line_allgather
from repro.collectives.plans import (
    ktree_reduce_plan,
    ktree_stage_count,
    pipeline_reduce_plan,
    ring_allreduce_plan,
    root_broadcast_plan,
)

__all__ = [
    "interleave",
    "interleave_placement",
    "identity_placement",
    "inverse_placement",
    "ring_dilation",
    "shift_mapping_1d",
    "row_ring_shift",
    "column_ring_shift",
    "row_broadcast",
    "column_broadcast",
    "point_to_point",
    "pipeline_reduce",
    "ring_allreduce",
    "ktree_reduce",
    "ktree_group_sizes",
    "two_way_group_reduce",
    "broadcast_from_root",
    "line_allgather",
    "pipeline_reduce_plan",
    "ring_allreduce_plan",
    "ktree_reduce_plan",
    "root_broadcast_plan",
    "ktree_stage_count",
]
