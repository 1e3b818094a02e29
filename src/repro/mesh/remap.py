"""Defect maps and logical-over-physical mesh remapping.

Real wafers ship with defective cores and links: yield at wafer scale is
only economical because the fabric routes around defects at
configuration time (the WSE's spare rows, Section 2 of the paper's
platform description).  Runtime software never sees the holes — it is
handed a *dense logical mesh* whose coordinates are transparently mapped
onto the healthy subset of the physical fabric.

This module reproduces that configuration step:

* :class:`DefectMap` — a seeded inventory of dead cores, dead links, and
  degraded links (reduced bandwidth), generated per-wafer from a defect
  rate the way a binning report would be;
* :class:`LogicalRemap` — the Cerebras-style repair: within every
  physical row, dead cores are skipped (their east neighbours shift
  left, logically), and rows with more defects than the column-spare
  budget covers are skipped entirely via spare rows.  Raises
  :class:`~repro.errors.RemapError` when spares run out;
* :class:`RemappedTopology` — a drop-in :class:`MeshTopology` whose
  ``width x height`` are the *logical* dimensions, so every kernel runs
  unchanged, but whose ``hop_distance`` / ``xy_route`` price the *real
  physical* route: remapped neighbours can be several hops apart, dead
  links force two-hop detours, and degraded links surface through
  :meth:`link_bandwidth_factor` into the fabric's streaming arithmetic.

Correctness is untouched by construction — kernels address logical
coordinates and the machine stores tiles by logical coordinate — so the
property tests assert bit-exact results against the dense mesh while the
trace shows the longer, slower physical communication.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import ConfigurationError, RemapError
from repro.mesh.topology import Coord, MeshTopology

#: A physical link, stored with endpoints in sorted order so that
#: ``(a, b)`` and ``(b, a)`` name the same wire.
Link = Tuple[Coord, Coord]


def normalize_link(a: Coord, b: Coord) -> Link:
    """Canonical (sorted-endpoint) form of the link between two cores."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class DefectMap:
    """Per-wafer inventory of dead cores and dead/degraded links.

    ``degraded_links`` maps a link to its surviving bandwidth fraction in
    ``(0, 1)`` — e.g. ``0.25`` for a link retrained down to quarter rate.
    Dead cores keep a working router (pass-through traffic survives, as
    on the WSE where the fabric switch is separate from the compute
    element); dead links carry nothing and force detours.
    """

    width: int
    height: int
    dead_cores: FrozenSet[Coord] = frozenset()
    dead_links: FrozenSet[Link] = frozenset()
    degraded_links: Dict[Link, float] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigurationError("defect map dimensions must be positive")
        for coord in self.dead_cores:
            if not (0 <= coord[0] < self.width and 0 <= coord[1] < self.height):
                raise ConfigurationError(f"dead core {coord} outside fabric")
        for link in self.dead_links:
            if normalize_link(*link) != link:
                raise ConfigurationError(f"link {link} not in canonical order")
        for link, factor in self.degraded_links.items():
            if not 0.0 < factor < 1.0:
                raise ConfigurationError(
                    f"degraded link {link} must keep a bandwidth fraction "
                    f"in (0, 1), got {factor}"
                )
            if link in self.dead_links:
                raise ConfigurationError(f"link {link} both dead and degraded")
        # Runtime link retrains (see :meth:`retrain_link`) mutate
        # ``degraded_links`` in place; the version counter lets caches
        # keyed on link bandwidth notice without content hashing.
        object.__setattr__(self, "_links_version", 0)

    # ------------------------------------------------------------------
    def core_ok(self, coord: Coord) -> bool:
        """Whether the compute element at ``coord`` is alive."""
        return coord not in self.dead_cores

    def link_ok(self, a: Coord, b: Coord) -> bool:
        """Whether the physical link between neighbours ``a``/``b`` carries traffic."""
        return normalize_link(a, b) not in self.dead_links

    def link_factor(self, a: Coord, b: Coord) -> float:
        """Surviving bandwidth fraction of a link (1.0 when healthy)."""
        return self.degraded_links.get(normalize_link(a, b), 1.0)

    @property
    def links_version(self) -> int:
        """Monotone counter bumped by every :meth:`retrain_link` call."""
        return self._links_version

    def retrain_link(self, a: Coord, b: Coord, factor: float) -> None:
        """Runtime bandwidth retrain of one link.

        Models the fabric management plane re-negotiating a marginal
        link's rate while the wafer is in service: ``factor`` in
        ``(0, 1)`` degrades (or re-degrades) the link, ``1.0`` restores
        it to full rate.  Dead links cannot be retrained back to life.

        Routes are unaffected — retraining changes bandwidth, never
        connectivity — but every cached bandwidth factor and register
        signature derived from the old link state is invalidated via
        :attr:`links_version`, and the defect fingerprint changes, so
        captured programs refuse to replay against the new link state.
        """
        link = normalize_link(a, b)
        if link in self.dead_links:
            raise ConfigurationError(
                f"link {link} is dead; retraining cannot revive it"
            )
        if not 0.0 < factor <= 1.0:
            raise ConfigurationError(
                f"retrained bandwidth fraction must be in (0, 1], got {factor}"
            )
        if factor == 1.0:
            self.degraded_links.pop(link, None)
        else:
            self.degraded_links[link] = factor
        object.__setattr__(self, "_links_version", self._links_version + 1)

    @property
    def num_defects(self) -> int:
        """Total defect count across cores and links."""
        return (
            len(self.dead_cores) + len(self.dead_links) + len(self.degraded_links)
        )

    @property
    def has_link_defects(self) -> bool:
        """Whether any link is dead or degraded (routing must care)."""
        return bool(self.dead_links or self.degraded_links)

    def fingerprint(self) -> Tuple:
        """Hashable content identity (two equal-fingerprint maps route alike)."""
        return (
            self.width,
            self.height,
            tuple(sorted(self.dead_cores)),
            tuple(sorted(self.dead_links)),
            tuple(sorted(self.degraded_links.items())),
        )

    def dead_per_row(self) -> List[int]:
        """Dead-core count of each physical row, top to bottom."""
        counts = [0] * self.height
        for _x, y in self.dead_cores:
            counts[y] += 1
        return counts

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, width: int, height: int) -> "DefectMap":
        """A pristine wafer (useful as an explicit no-defect baseline)."""
        return cls(width=width, height=height)

    @classmethod
    def generate(
        cls,
        width: int,
        height: int,
        seed: int = 0,
        dead_core_rate: float = 0.0,
        dead_link_rate: float = 0.0,
        degraded_link_rate: float = 0.0,
        degraded_factor: float = 0.5,
    ) -> "DefectMap":
        """Seeded Bernoulli defect map, the shape a binning report takes.

        Rates are per-core / per-link probabilities; ``degraded_factor``
        is the bandwidth fraction a degraded link retains.
        """
        for rate in (dead_core_rate, dead_link_rate, degraded_link_rate):
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError("defect rates must be in [0, 1)")
        # Checked before drawing, so validity does not depend on the seed.
        if not 0.0 < degraded_factor < 1.0:
            raise ConfigurationError(
                f"degraded_factor must be in (0, 1), got {degraded_factor}"
            )
        rng = random.Random(seed)
        dead_cores = frozenset(
            (x, y)
            for y in range(height)
            for x in range(width)
            if rng.random() < dead_core_rate
        )
        links: List[Link] = []
        for y in range(height):
            for x in range(width):
                if x + 1 < width:
                    links.append(normalize_link((x, y), (x + 1, y)))
                if y + 1 < height:
                    links.append(normalize_link((x, y), (x, y + 1)))
        dead_links = set()
        degraded: Dict[Link, float] = {}
        for link in links:
            if rng.random() < dead_link_rate:
                dead_links.add(link)
            elif rng.random() < degraded_link_rate:
                degraded[link] = degraded_factor
        return cls(
            width=width,
            height=height,
            dead_cores=dead_cores,
            dead_links=frozenset(dead_links),
            degraded_links=degraded,
        )


@dataclass(frozen=True)
class LogicalRemap:
    """The logical -> physical coordinate assignment of one repair."""

    logical_width: int
    logical_height: int
    to_physical_map: Dict[Coord, Coord] = field(hash=False)
    skipped_rows: Tuple[int, ...] = ()

    def to_physical(self, logical: Coord) -> Coord:
        """Physical coordinate hosting a logical core."""
        try:
            return self.to_physical_map[logical]
        except KeyError:
            raise RemapError(f"logical coordinate {logical} not in remap") from None

    @property
    def displaced_cores(self) -> int:
        """Logical cores whose physical coordinate differs (repair work)."""
        return sum(
            1 for logical, phys in self.to_physical_map.items() if logical != phys
        )

    @property
    def is_identity(self) -> bool:
        """True when the repair moved nothing (pristine wafer)."""
        return self.displaced_cores == 0


def build_remap(
    physical: MeshTopology,
    defects: DefectMap,
    logical_width: Optional[int] = None,
    logical_height: Optional[int] = None,
) -> LogicalRemap:
    """Assign a dense logical mesh onto the healthy physical cores.

    Row-granular spare-row repair: logical row ``y`` is hosted by the
    ``y``-th physical row that still has at least ``logical_width`` alive
    cores; within a hosting row, logical column ``x`` is the ``x``-th
    alive core (dead cores are skipped eastward).  When dimensions are
    omitted, the largest dense mesh the defects allow is chosen:
    ``width - max(dead per row)`` columns over every row.

    Raises
    ------
    RemapError
        When fewer than ``logical_height`` rows can host
        ``logical_width`` healthy cores — the spare budget is exhausted.
    """
    if defects.width != physical.width or defects.height != physical.height:
        raise ConfigurationError(
            f"defect map {defects.width}x{defects.height} does not describe "
            f"the {physical.width}x{physical.height} fabric"
        )
    if logical_width is None:
        logical_width = physical.width - max(defects.dead_per_row(), default=0)
    if logical_height is None:
        logical_height = physical.height
    if logical_width < 1 or logical_height < 1:
        raise RemapError(
            f"defects leave no {max(logical_width, 1)}-wide dense mesh in the "
            f"{physical.width}x{physical.height} fabric"
        )
    if logical_width > physical.width or logical_height > physical.height:
        raise RemapError(
            f"logical mesh {logical_width}x{logical_height} larger than the "
            f"physical fabric {physical.width}x{physical.height}"
        )
    alive_cols: List[List[int]] = [
        [x for x in range(physical.width) if defects.core_ok((x, y))]
        for y in range(physical.height)
    ]
    usable_rows = [
        y for y in range(physical.height) if len(alive_cols[y]) >= logical_width
    ]
    if len(usable_rows) < logical_height:
        raise RemapError(
            f"only {len(usable_rows)} physical rows can host {logical_width} "
            f"healthy cores; {logical_height} needed — spare rows exhausted"
        )
    hosting = usable_rows[:logical_height]
    mapping: Dict[Coord, Coord] = {}
    for ly, py in enumerate(hosting):
        cols = alive_cols[py]
        for lx in range(logical_width):
            mapping[(lx, ly)] = (cols[lx], py)
    skipped = tuple(
        y for y in range(hosting[-1] + 1) if y not in set(hosting)
    )
    return LogicalRemap(
        logical_width=logical_width,
        logical_height=logical_height,
        to_physical_map=mapping,
        skipped_rows=skipped,
    )


@dataclass(frozen=True)
class RemappedTopology(MeshTopology):
    """A dense logical mesh riding a defective physical fabric.

    ``width``/``height`` (and everything addressed through them —
    ``coords``, ``row``, ``column``, ``neighbours``) are *logical*, so
    kernels are oblivious to defects.  ``hop_distance`` and ``xy_route``
    price the physical route: endpoints remap, dead links detour, and
    :meth:`link_bandwidth_factor` exposes degraded-link slowdowns to the
    fabric's streaming model.
    """

    physical: MeshTopology = None  # type: ignore[assignment]
    defects: DefectMap = None  # type: ignore[assignment]
    remap: LogicalRemap = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.physical is None or self.defects is None or self.remap is None:
            raise ConfigurationError(
                "RemappedTopology needs physical topology, defects, and remap"
            )
        if (
            self.width != self.remap.logical_width
            or self.height != self.remap.logical_height
        ):
            raise ConfigurationError(
                f"logical dims {self.width}x{self.height} disagree with the "
                f"remap's {self.remap.logical_width}x{self.remap.logical_height}"
            )

    # ------------------------------------------------------------------
    def to_physical(self, coord: Coord) -> Coord:
        """Physical coordinate hosting a logical core."""
        self.validate(coord)
        return self.remap.to_physical(coord)

    @property
    def has_link_defects(self) -> bool:
        """Whether routing must account for dead or degraded links."""
        return self.defects.has_link_defects

    def link_bandwidth_factor(self, a: Coord, b: Coord) -> float:
        """Surviving bandwidth fraction of a *physical* link."""
        return self.defects.link_factor(a, b)

    @property
    def links_version(self) -> int:
        """Link-state version of the underlying defect map.

        Bumped by :meth:`DefectMap.retrain_link`; fabric caches keyed on
        bandwidth include it, so retrains invalidate them immediately.
        """
        return self.defects.links_version

    # ------------------------------------------------------------------
    def _detour(self, cur: Coord, nxt: Coord) -> List[Coord]:
        """Route around a dead link via an adjacent row/column.

        The wavelet side-steps perpendicular to the blocked hop, travels
        one hop parallel to it, and steps back: two extra hops.  The
        side whose three substitute links are all healthy is preferred;
        a side merely inside the fabric is the fallback (double faults
        on the detour are not detoured recursively).
        """
        step_is_x = nxt[1] == cur[1]
        perps = [(0, 1), (0, -1)] if step_is_x else [(1, 0), (-1, 0)]
        in_mesh: List[List[Coord]] = []
        for px, py in perps:
            a = (cur[0] + px, cur[1] + py)
            b = (nxt[0] + px, nxt[1] + py)
            if not (self.physical.contains(a) and self.physical.contains(b)):
                continue
            path = [a, b, nxt]
            in_mesh.append(path)
            if (
                self.defects.link_ok(cur, a)
                and self.defects.link_ok(a, b)
                and self.defects.link_ok(b, nxt)
            ):
                return path
        if in_mesh:
            return in_mesh[0]
        raise RemapError(
            f"dead link {normalize_link(cur, nxt)} cannot be detoured "
            f"in a {self.physical.width}x{self.physical.height} fabric"
        )

    def physical_route(self, src: Coord, dst: Coord) -> List[Coord]:
        """Physical cores on the repaired route between two logical cores.

        Memoized per instance (defect maps are immutable once built);
        treat the returned list as read-only.
        """
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return cached
        psrc = self.to_physical(src)
        pdst = self.to_physical(dst)
        nominal = self.physical.xy_route(psrc, pdst)
        route = [nominal[0]]
        for nxt in nominal[1:]:
            cur = route[-1]
            if self.defects.link_ok(cur, nxt):
                route.append(nxt)
            else:
                route.extend(self._detour(cur, nxt))
        self._route_cache[(src, dst)] = route
        return route

    def hop_distance(self, src: Coord, dst: Coord) -> int:
        """Physical hops between two logical cores (detours included)."""
        self.validate(src)
        self.validate(dst)
        return len(self.physical_route(src, dst)) - 1

    def xy_route(self, src: Coord, dst: Coord) -> List[Coord]:
        """Physical route between logical cores (for routing-resource accounting)."""
        self.validate(src)
        self.validate(dst)
        return self.physical_route(src, dst)

    def fingerprint(self) -> Tuple:
        """Geometry identity including the defect content and the remap.

        Differs from every dense fingerprint and from any remapped fabric
        with different defects, so captured programs never replay across
        a defect change (hops, detours, and bandwidth factors would lie).
        """
        return (
            "remapped",
            self.width,
            self.height,
            self.physical.width,
            self.physical.height,
            self.defects.fingerprint(),
        )


def build_remapped_topology(
    device_width: int,
    device_height: int,
    defects: DefectMap,
    logical_width: Optional[int] = None,
    logical_height: Optional[int] = None,
) -> RemappedTopology:
    """Configuration-time repair: defects + fabric -> dense logical mesh."""
    physical = MeshTopology(device_width, device_height)
    remap = build_remap(physical, defects, logical_width, logical_height)
    return RemappedTopology(
        width=remap.logical_width,
        height=remap.logical_height,
        physical=physical,
        defects=defects,
        remap=remap,
    )
