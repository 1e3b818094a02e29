"""Mesh-wide communication primitives built on the machine's phases.

These helpers translate logical collective steps (shift every row's tiles
one position around its ring; broadcast along each row; ...) into the
flow sets the :class:`~repro.mesh.machine.MeshMachine` executes.  All of
them operate on every row (or column) of the mesh simultaneously, which
is how the 2D kernels use them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.collectives.interleave import shift_mapping_1d
from repro.errors import ShapeError
from repro.mesh.fabric import Flow
from repro.mesh.machine import MeshMachine
from repro.mesh.topology import Coord


def row_ring_shift(
    machine: MeshMachine,
    pattern: str,
    name: str,
    placement: List[int],
    offset: int = 1,
    row_offsets: Optional[List[int]] = None,
) -> None:
    """Shift a named tile around the logical ring of every row.

    ``placement`` maps logical ring index -> physical X position (use
    :func:`~repro.collectives.interleave.interleave_placement` for
    MeshGEMM, :func:`identity_placement` for Cannon).  ``row_offsets``
    lets each row shift by a different amount (Cannon/MeshGEMM alignment
    skews row ``i`` by ``-i``); otherwise every row shifts by ``offset``.
    """
    width = machine.topology.width
    if len(placement) != width:
        raise ShapeError(
            f"placement length {len(placement)} != mesh width {width}"
        )
    mapping: Dict[Coord, Coord] = {}
    for y in range(machine.topology.height):
        row_shift = row_offsets[y] if row_offsets is not None else offset
        dest_of = shift_mapping_1d(placement, row_shift)
        for x in range(width):
            mapping[(x, y)] = (dest_of[x], y)
    machine.shift_named(pattern, mapping, name, name)


def column_ring_shift(
    machine: MeshMachine,
    pattern: str,
    name: str,
    placement: List[int],
    offset: int = 1,
    col_offsets: Optional[List[int]] = None,
) -> None:
    """Shift a named tile around the logical ring of every column."""
    height = machine.topology.height
    if len(placement) != height:
        raise ShapeError(
            f"placement length {len(placement)} != mesh height {height}"
        )
    mapping: Dict[Coord, Coord] = {}
    for x in range(machine.topology.width):
        col_shift = col_offsets[x] if col_offsets is not None else offset
        dest_of = shift_mapping_1d(placement, col_shift)
        for y in range(height):
            mapping[(x, y)] = (x, dest_of[y])
    machine.shift_named(pattern, mapping, name, name)


def row_broadcast(
    machine: MeshMachine,
    pattern: str,
    src_name: str,
    dst_name: str,
    root_x: int,
) -> None:
    """Broadcast one core's tile to its whole row, in every row at once.

    Used by SUMMA's per-step pivot broadcast; the flow fans out east and
    west of the root, so the critical path is the distance to the row's
    far edge.  The root also keeps a local copy under ``dst_name``.
    """
    flows: List[Flow] = []
    for y in range(machine.topology.height):
        root = (root_x, y)
        machine.copy_tile(root, src_name, dst_name)
        dsts = [(x, y) for x in range(machine.topology.width) if x != root_x]
        if dsts:
            flows.append(Flow.multicast(root, dsts, src_name, dst_name))
    if flows:
        machine.communicate(pattern, flows)
    else:
        # Single-column mesh: the broadcast degenerates to the local copy
        # above.  Record a barrier so the event stays visible without a
        # fake zero-byte communication phase.
        machine.barrier(pattern)


def column_broadcast(
    machine: MeshMachine,
    pattern: str,
    src_name: str,
    dst_name: str,
    root_y: int,
) -> None:
    """Broadcast one core's tile to its whole column, in every column.

    The root also keeps a local copy under ``dst_name``.
    """
    flows: List[Flow] = []
    for x in range(machine.topology.width):
        root = (x, root_y)
        machine.copy_tile(root, src_name, dst_name)
        dsts = [(x, y) for y in range(machine.topology.height) if y != root_y]
        if dsts:
            flows.append(Flow.multicast(root, dsts, src_name, dst_name))
    if flows:
        machine.communicate(pattern, flows)
    else:
        # Single-row mesh: degenerate broadcast, same as row_broadcast.
        machine.barrier(pattern)


def point_to_point(
    machine: MeshMachine,
    pattern: str,
    src: Coord,
    dst: Coord,
    src_name: str,
    dst_name: str,
) -> None:
    """Move one tile between two arbitrary cores (XY routed)."""
    machine.communicate(pattern, [Flow.unicast(src, dst, src_name, dst_name)])

