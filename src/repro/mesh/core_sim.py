"""The per-core model: local memory with capacity enforcement.

Each wafer core owns a small SRAM (48 KB on WSE-2).  The functional
machine stores named numpy tiles in each core's memory; any allocation
that would push the resident total past the capacity raises
:class:`~repro.errors.MemoryCapacityError`, which is how the simulator
makes M-property violations (e.g. allgather-GEMM's inflated working set,
or concat-based KV cache growth on the last row) observable instead of
theoretical.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import MemoryCapacityError, SimulationError

Coord = Tuple[int, int]


class Core:
    """One wafer core: a coordinate plus a capacity-enforced tile store."""

    __slots__ = (
        "coord",
        "capacity_bytes",
        "_tiles",
        "_resident_bytes",
        "peak_bytes",
        "_exclusive",
    )

    def __init__(self, coord: Coord, capacity_bytes: int):
        self.coord = coord
        self.capacity_bytes = capacity_bytes
        self._tiles: Dict[str, np.ndarray] = {}
        self._resident_bytes = 0
        self.peak_bytes = 0
        # Names whose ndarray is exclusively owned by this slot (no other
        # slot, core, or host reference can observe a mutation of it).
        # The machine's copy-elision uses this to transfer a tile to its
        # destination without the defensive in-flight copy.
        self._exclusive: set = set()

    # -- storage --------------------------------------------------------
    def store(self, name: str, tile: np.ndarray, exclusive: bool = False) -> None:
        """Place (or replace) a named tile in local memory.

        ``exclusive=True`` asserts the array is referenced by this slot
        alone (e.g. a copy the NoC delivery just made); host-placed
        arrays default to non-exclusive because they may be views into a
        caller's matrix.

        Raises
        ------
        MemoryCapacityError
            If the allocation would exceed this core's SRAM capacity.
        """
        if type(tile) is not np.ndarray:
            tile = np.asarray(tile)
        old = self._tiles.get(name)
        if old is not None and old.nbytes == tile.nbytes:
            # Same-size replacement (the steady-state of a replayed
            # decode step): residency cannot change, so the capacity
            # check is vacuous.
            self._tiles[name] = tile
            if exclusive:
                self._exclusive.add(name)
            else:
                self._exclusive.discard(name)
            return
        delta = tile.nbytes - (old.nbytes if old is not None else 0)
        if self._resident_bytes + delta > self.capacity_bytes:
            raise MemoryCapacityError(
                self.coord,
                requested=tile.nbytes,
                capacity=self.capacity_bytes,
                resident=self._resident_bytes,
            )
        self._tiles[name] = tile
        if exclusive:
            self._exclusive.add(name)
        else:
            self._exclusive.discard(name)
        self._resident_bytes += delta
        if self._resident_bytes > self.peak_bytes:
            self.peak_bytes = self._resident_bytes

    def is_exclusive(self, name: str) -> bool:
        """Whether the named tile's buffer is owned by this slot alone."""
        return name in self._exclusive

    def mark_shared(self, name: str) -> None:
        """Drop a tile's exclusivity (another reference to it now exists)."""
        self._exclusive.discard(name)

    def load(self, name: str) -> np.ndarray:
        """Read a named tile; raises :class:`SimulationError` if missing."""
        try:
            return self._tiles[name]
        except KeyError:
            raise SimulationError(
                f"core {self.coord} has no tile named {name!r}; "
                f"resident: {sorted(self._tiles)}"
            ) from None

    def load_optional(self, name: str) -> Optional[np.ndarray]:
        """Read a named tile, or ``None`` when absent."""
        return self._tiles.get(name)

    def free(self, name: str) -> None:
        """Release a named tile; missing names are ignored."""
        tile = self._tiles.pop(name, None)
        self._exclusive.discard(name)
        if tile is not None:
            self._resident_bytes -= tile.nbytes

    def clear(self) -> None:
        """Release every tile (``peak_bytes`` keeps its high-water mark)."""
        self._tiles.clear()
        self._exclusive.clear()
        self._resident_bytes = 0

    def has(self, name: str) -> bool:
        """True when a tile with this name is resident."""
        return name in self._tiles

    def rename(self, old: str, new: str) -> None:
        """Rename a resident tile without copying."""
        tile = self.load(old)
        self._tiles.pop(old)
        # No capacity change: same buffer under a new name; exclusivity
        # travels with the buffer.
        self._tiles[new] = tile
        if old in self._exclusive:
            self._exclusive.discard(old)
            self._exclusive.add(new)
        else:
            self._exclusive.discard(new)

    def tile_names(self) -> Iterator[str]:
        """Iterate names of resident tiles."""
        return iter(sorted(self._tiles))

    # -- accounting -------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        """Bytes currently resident in this core's SRAM."""
        return self._resident_bytes

    @property
    def free_bytes(self) -> int:
        """Remaining SRAM capacity."""
        return self.capacity_bytes - self._resident_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Core({self.coord}, {self._resident_bytes}/{self.capacity_bytes} B, "
            f"{len(self._tiles)} tiles)"
        )
