"""The planner's view of a (possibly defective) wafer fabric.

:class:`FabricView` wraps a device and an optional
:class:`~repro.mesh.remap.DefectMap` into the dense *logical* mesh the
planner searches, and prices candidate carve-outs on the **real**
fabric: logical neighbours that the remap displaced pay their physical
hop distance, dead links pay detours, and degraded links surface their
bandwidth fraction — all priced elementwise over the flow population by
:class:`repro.mesh.cost_model.CommPhase`, not analytic formulas on the
pristine mesh.

The key scalar is :meth:`FabricView.comm_stretch`: the ratio of streamed
cycles for a carve-out's neighbour-shift flow population on the degraded
fabric versus the same flows on a pristine mesh.  WaferLLM's kernels are
shift-dominated (the L property), so this single factor scales the cost
model's exposed communication faithfully; anchors over displaced columns
or detour-ridden rows score worse and the search routes around them.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.plmr import PLMRDevice
from repro.errors import ConfigurationError
from repro.mesh.cost_model import CommPhase
from repro.mesh.remap import (
    DefectMap,
    RemappedTopology,
    build_remapped_topology,
    normalize_link,
)
from repro.placement.plan import Coord, RegionCarveOut

#: Canonical per-flow payload for stretch probing: the order of one
#: decode GEMV shift fragment (``d_model / grid * dtype`` bytes lands in
#: the tens-of-bytes range for every paper model/grid pair).  One global
#: constant so stretch ratios are comparable across plans.
PROBE_PAYLOAD_BYTES = 64.0


class FabricView:
    """Device + defects -> the dense logical mesh, with physical pricing."""

    def __init__(self, device: PLMRDevice, defects: Optional[DefectMap] = None):
        self.device = device
        if defects is not None and (
            defects.width != device.mesh_width
            or defects.height != device.mesh_height
        ):
            raise ConfigurationError(
                f"defect map {defects.width}x{defects.height} does not "
                f"describe the {device.mesh_width}x{device.mesh_height} fabric"
            )
        if defects is None or defects.num_defects == 0:
            self.defects: Optional[DefectMap] = None
            self.topology: Optional[RemappedTopology] = None
            self.logical_width = device.mesh_width
            self.logical_height = device.mesh_height
        else:
            self.defects = defects
            self.topology = build_remapped_topology(
                device.mesh_width, device.mesh_height, defects
            )
            self.logical_width = self.topology.width
            self.logical_height = self.topology.height
        self._build_coordinate_arrays()
        self._build_defect_prefix_sums()

    # ------------------------------------------------------------------
    @property
    def side(self) -> int:
        """Largest square grid the logical mesh can host."""
        return min(self.logical_width, self.logical_height)

    @property
    def is_pristine(self) -> bool:
        """Whether the view carries no defects at all."""
        return self.topology is None

    @property
    def num_defects(self) -> int:
        """Defect count of the underlying map (0 when pristine)."""
        return 0 if self.defects is None else self.defects.num_defects

    def to_physical(self, coord: Coord) -> Coord:
        """Physical coordinate hosting a logical core."""
        if self.topology is None:
            return coord
        return self.topology.to_physical(coord)

    # ------------------------------------------------------------------
    def _build_coordinate_arrays(self) -> None:
        """Vectorized logical->physical maps for whole-region slicing."""
        if self.topology is None:
            self._px = None
            self._py = None
            return
        lw, lh = self.logical_width, self.logical_height
        px = np.empty((lh, lw), dtype=np.int64)
        py = np.empty(lh, dtype=np.int64)
        for (lx, ly), (qx, qy) in self.topology.remap.to_physical_map.items():
            px[ly, lx] = qx
            py[ly] = qy
        self._px = px
        self._py = py

    def _build_defect_prefix_sums(self) -> None:
        """Row/column prefix sums of defective links, for O(1) crossing
        tests per flow (a flow's nominal XY route is one horizontal and
        one vertical segment)."""
        self._ph = None
        self._pv = None
        if self.defects is None or not self.defects.has_link_defects:
            return
        w, h = self.device.mesh_width, self.device.mesh_height
        dh = np.zeros((h, w), dtype=np.int64)   # link (x,y)-(x+1,y)
        dv = np.zeros((w, h), dtype=np.int64)   # link (x,y)-(x,y+1)
        bad = set(self.defects.dead_links) | set(self.defects.degraded_links)
        for (ax, ay), (bx, by) in bad:
            if ay == by:                        # horizontal link
                dh[ay, min(ax, bx)] += 1
            else:                               # vertical link
                dv[ax, min(ay, by)] += 1
        # prefix[y, x] = defective links in row y with index < x
        self._ph = np.concatenate(
            [np.zeros((h, 1), dtype=np.int64), np.cumsum(dh, axis=1)], axis=1
        )
        self._pv = np.concatenate(
            [np.zeros((w, 1), dtype=np.int64), np.cumsum(dv, axis=1)], axis=1
        )

    # ------------------------------------------------------------------
    def _region_flows(
        self, carve: RegionCarveOut
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """(hops, bw_factor, n) for the carve-out's neighbour-shift flows.

        Base hops come from the remap displacement (``|Δpx| + |Δpy|`` of
        the nominal XY route); the few flows whose nominal route crosses
        a dead or degraded link are re-priced exactly through
        :meth:`~repro.mesh.remap.RemappedTopology.physical_route`
        (detour hops, slowest-link bandwidth).
        """
        x0, y0 = carve.x, carve.y
        w, h = carve.width, carve.height
        px = self._px[y0:y0 + h, x0:x0 + w]
        py = self._py[y0:y0 + h]

        # Horizontal logical neighbours (x,y) -> (x+1,y): same hosting row.
        h_src_x = px[:, :-1]
        h_dst_x = px[:, 1:]
        h_hops = np.abs(h_dst_x - h_src_x)
        # Vertical logical neighbours (x,y) -> (x,y+1): column displacement
        # between hosting rows plus the row gap (skipped spare rows).
        v_dx = np.abs(px[1:, :] - px[:-1, :])
        v_dy = (py[1:] - py[:-1])[:, None]
        v_hops = v_dx + np.broadcast_to(v_dy, v_dx.shape)

        hops = np.concatenate([h_hops.ravel(), v_hops.ravel()]).astype(
            np.float64
        )
        bw = np.ones_like(hops)
        n = hops.size
        if self._ph is None:
            return hops, bw, n

        # Nominal-route defect crossings, vectorized via prefix sums.
        # Horizontal flow: one horizontal segment in row py[y] spanning
        # [min(px), max(px)).
        rows = np.broadcast_to(py[:, None], h_src_x.shape)
        lo = np.minimum(h_src_x, h_dst_x)
        hi = np.maximum(h_src_x, h_dst_x)
        h_cross = self._ph[rows, hi] - self._ph[rows, lo]
        # Vertical flow: horizontal segment in the source hosting row,
        # then a vertical segment in the destination column.
        src_x = px[:-1, :]
        dst_x = px[1:, :]
        src_row = np.broadcast_to(py[:-1, None], src_x.shape)
        lo_v = np.minimum(src_x, dst_x)
        hi_v = np.maximum(src_x, dst_x)
        v_cross = self._ph[src_row, hi_v] - self._ph[src_row, lo_v]
        lo_y = np.broadcast_to(py[:-1, None], dst_x.shape)
        hi_y = np.broadcast_to(py[1:, None], dst_x.shape)
        v_cross = v_cross + self._pv[dst_x, hi_y] - self._pv[dst_x, lo_y]

        crossings = np.concatenate([h_cross.ravel(), v_cross.ravel()])
        dirty = np.nonzero(crossings > 0)[0]
        if dirty.size:
            n_h = h_hops.size
            hw = w - 1
            for idx in dirty:
                i = int(idx)
                if i < n_h:
                    ry, rx = divmod(i, hw)
                    src = (x0 + rx, y0 + ry)
                    dst = (x0 + rx + 1, y0 + ry)
                else:
                    ry, rx = divmod(i - n_h, w)
                    src = (x0 + rx, y0 + ry)
                    dst = (x0 + rx, y0 + ry + 1)
                route = self.topology.physical_route(src, dst)
                hops[i] = float(len(route) - 1)
                bw[i] = min(
                    self.topology.link_bandwidth_factor(a, b)
                    for a, b in zip(route, route[1:])
                )
        return hops, bw, n

    def comm_stretch(
        self,
        carve: RegionCarveOut,
        payload_bytes: float = PROBE_PAYLOAD_BYTES,
    ) -> float:
        """Streamed-cycle ratio: this carve-out's shift flows on the
        degraded fabric vs the same flows on a pristine mesh (>= 1.0)."""
        if self.topology is None:
            return 1.0
        if not carve.fits(self.logical_width, self.logical_height):
            raise ConfigurationError(
                f"carve-out {carve.name!r} outside the "
                f"{self.logical_width}x{self.logical_height} logical mesh"
            )
        if carve.width < 2 and carve.height < 2:
            return 1.0
        hops, bw, n = self._region_flows(carve)
        payload = np.full(n, float(payload_bytes))
        degraded = CommPhase("probe-shift", hops, payload, overhead_cycles=0.0,
                             bw_derate=bw).cycles(self.device)
        pristine = CommPhase("probe-shift", np.ones(n), payload,
                             overhead_cycles=0.0).cycles(self.device)
        return float(degraded.sum() / pristine.sum())

    # ------------------------------------------------------------------
    def probe_window(
        self, carve: RegionCarveOut, probe: int
    ) -> Tuple[Optional[DefectMap], Tuple[int, int]]:
        """Cropped defect map around the carve-out's probe corner.

        The validator replays kernels at probe scale on the *actual
        physical neighbourhood* hosting the carve-out's anchor window:
        the bounding box (padded one core for detours) of the physical
        coordinates hosting the ``probe x probe`` logical corner, with
        every defect inside the box re-anchored to box coordinates.
        """
        probe = min(probe, carve.width, carve.height)
        window = [
            (carve.x + dx, carve.y + dy)
            for dy in range(probe)
            for dx in range(probe)
        ]
        if self.topology is None:
            return None, (probe, probe)
        phys = [self.to_physical(c) for c in window]
        xs = [p[0] for p in phys]
        ys = [p[1] for p in phys]
        x0 = max(0, min(xs) - 1)
        y0 = max(0, min(ys) - 1)
        x1 = min(self.device.mesh_width - 1, max(xs) + 1)
        y1 = min(self.device.mesh_height - 1, max(ys) + 1)
        bw, bh = x1 - x0 + 1, y1 - y0 + 1

        def inside(c: Coord) -> bool:
            return x0 <= c[0] <= x1 and y0 <= c[1] <= y1

        def shift(c: Coord) -> Coord:
            return (c[0] - x0, c[1] - y0)

        defects = self.defects
        dead_cores = frozenset(
            shift(c) for c in defects.dead_cores if inside(c)
        )
        dead_links = frozenset(
            normalize_link(shift(a), shift(b))
            for a, b in defects.dead_links
            if inside(a) and inside(b)
        )
        degraded = {
            normalize_link(shift(a), shift(b)): factor
            for (a, b), factor in defects.degraded_links.items()
            if inside(a) and inside(b)
        }
        cropped = DefectMap(
            width=bw,
            height=bh,
            dead_cores=dead_cores,
            dead_links=dead_links,
            degraded_links=degraded,
        )
        if cropped.num_defects == 0:
            return None, (probe, probe)
        return cropped, (bw, bh)

    def probe_machine(self, carve: RegionCarveOut, probe: int):
        """A probe-scale :class:`~repro.mesh.machine.MeshMachine` over the
        carve-out's physical neighbourhood (dense when that patch is
        clean).

        Raises
        ------
        RemapError
            When the cropped patch cannot host a dense ``probe x probe``
            mesh (pathologically defective neighbourhood) — the caller
            turns this into a plan rejection.
        """
        from repro.mesh.machine import MeshMachine

        probe = min(probe, carve.width, carve.height)
        cropped, (bw, bh) = self.probe_window(carve, probe)
        if cropped is None:
            return MeshMachine(
                self.device.submesh(probe, probe), enforce_memory=False
            )
        return MeshMachine(
            self.device.submesh(bw, bh),
            enforce_memory=False,
            defects=cropped,
            logical_shape=(probe, probe),
        )
