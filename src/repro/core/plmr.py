"""The PLMR device model (paper Section 3.1).

The PLMR model captures the four hardware properties of wafer-scale
accelerators that system software must respect:

* **P** — massive Parallelism: hundreds of thousands to millions of cores,
  each a small pipeline that overlaps ingress, egress, compute and memory.
* **L** — highly non-uniform memory-access Latency: in an ``Nw x Nh`` mesh
  the farthest core is ``max(Nw, Nh)`` hops away, so remote access latency
  varies by up to three orders of magnitude.
* **M** — constrained local Memory: tens of KB to a few MB per core.
* **R** — constrained Routing resources: NoC messages are a few bytes and
  route headers a few bits, so each core may only take part in a small
  number of simultaneous routing paths.

:class:`PLMRDevice` is the single source of truth for these parameters.
The functional mesh machine enforces M and R at runtime; the analytic cost
model turns step plans into cycles using the latency/bandwidth/compute
parameters; the compliance checker (``repro.core.compliance``) grades
algorithms against P/L/M/R exactly as the paper's Figures 6 and 8 do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PLMRDevice:
    """Parameters of a wafer-scale (or mesh NoC) accelerator.

    The defaults describe no particular machine; use the presets in
    :mod:`repro.core.device_presets` (``WSE2``, ``WSE3``, ...) for
    calibrated configurations.

    Attributes
    ----------
    name:
        Human-readable device name.
    mesh_width, mesh_height:
        Fabric dimensions in cores.  ``mesh_width * mesh_height`` is the
        P parameter.
    core_memory_bytes:
        Local SRAM per core (the M parameter).
    clock_hz:
        Core and fabric clock.  The WSE fabric is clocked with the cores.
    macs_per_cycle:
        Multiply-accumulate throughput of one core per cycle at the
        element width used by the kernels (fp16 on WSE-2).
    hop_cycles:
        Fabric latency of forwarding one message across one hop.
    link_bytes_per_cycle:
        Payload bandwidth of a single NoC link.
    message_bytes:
        Maximum single-message (wavelet) payload; larger transfers are
        streamed.  This is the message-size half of the R property.
    max_paths_per_core:
        Maximum number of distinct routing paths (route colours) a core can
        participate in simultaneously; the routing half of the R property.
    noc_pj_per_bit_per_hop:
        Energy to move one bit across one hop (wafer-scale links are
        ~0.1 pJ/bit versus ~10 pJ/bit for PCB links, Table 1).
    sram_pj_per_bit:
        Energy of one local SRAM bit access.
    mac_pj:
        Energy of one MAC at the native element width.
    device_power_w:
        Whole-device power draw used for wall-clock energy ratios
        (the paper's Tables 6-8 divide device power by time).
    """

    name: str = "generic-plmr"
    mesh_width: int = 64
    mesh_height: int = 64
    core_memory_bytes: int = 48 * 1024
    clock_hz: float = 1.1e9
    macs_per_cycle: float = 2.0
    hop_cycles: float = 1.0
    link_bytes_per_cycle: float = 4.0
    message_bytes: int = 4
    max_paths_per_core: int = 8
    noc_pj_per_bit_per_hop: float = 0.1
    sram_pj_per_bit: float = 0.06
    mac_pj: float = 2.2
    device_power_w: float = 15000.0

    def __post_init__(self) -> None:
        if self.mesh_width < 1 or self.mesh_height < 1:
            raise ConfigurationError(
                f"mesh must be at least 1x1, got "
                f"{self.mesh_width}x{self.mesh_height}"
            )
        if self.core_memory_bytes <= 0:
            raise ConfigurationError("core_memory_bytes must be positive")
        if self.clock_hz <= 0:
            raise ConfigurationError("clock_hz must be positive")
        if self.macs_per_cycle <= 0:
            raise ConfigurationError("macs_per_cycle must be positive")
        if self.message_bytes < 1:
            raise ConfigurationError("message_bytes must be at least 1")
        if self.max_paths_per_core < 1:
            raise ConfigurationError("max_paths_per_core must be at least 1")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_cores(self) -> int:
        """Total core count (the P parameter)."""
        return self.mesh_width * self.mesh_height

    @property
    def total_memory_bytes(self) -> int:
        """Aggregate on-chip memory across all cores."""
        return self.num_cores * self.core_memory_bytes

    @property
    def max_hops(self) -> int:
        """Worst-case hop count between two cores (the L parameter).

        With dimension-ordered (XY) routing the farthest pair is
        ``(width - 1) + (height - 1)`` hops apart; the paper quotes the
        per-axis bound ``max(Nw, Nh)``, which we expose separately as
        :attr:`max_axis_hops`.
        """
        return (self.mesh_width - 1) + (self.mesh_height - 1)

    @property
    def max_axis_hops(self) -> int:
        """The paper's L metric: longest hop distance along one axis."""
        return max(self.mesh_width, self.mesh_height)

    @property
    def latency_variance(self) -> float:
        """Ratio of the worst remote access latency to a local access.

        Local SRAM access is modelled at one cycle, so the variance equals
        the worst-case hop latency in cycles.  For a million-core mesh this
        reaches ~1000x, the figure the paper's L property is built on.
        """
        return self.max_axis_hops * self.hop_cycles

    @property
    def peak_macs_per_s(self) -> float:
        """Aggregate MAC throughput of the whole device."""
        return self.num_cores * self.macs_per_cycle * self.clock_hz

    @property
    def aggregate_link_bandwidth(self) -> float:
        """Aggregate one-directional NoC bandwidth in bytes/s.

        Each core drives four links (N/E/S/W); edge effects are ignored,
        matching the "100s of Pbit/s" aggregate figure in Section 4.4.
        """
        return 4.0 * self.num_cores * self.link_bytes_per_cycle * self.clock_hz

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count into wall-clock seconds."""
        return cycles / self.clock_hz

    def seconds_to_cycles(self, seconds: float) -> float:
        """Convert wall-clock seconds into clock cycles."""
        return seconds * self.clock_hz

    def energy_joules(self, seconds: float) -> float:
        """Wall-clock energy at the device power envelope.

        This is the accounting used for the paper's energy ratios
        (Tables 6-8): whole-device power multiplied by elapsed time.
        """
        return self.device_power_w * seconds

    # ------------------------------------------------------------------
    # Sub-mesh selection
    # ------------------------------------------------------------------
    def submesh(self, width: int, height: Optional[int] = None) -> "PLMRDevice":
        """Return a device representing a rectangular sub-fabric.

        The paper runs each experiment on a square region of the WSE-2
        (e.g. 660x660 cores for LLaMA3-8B prefill).  All per-core
        parameters are inherited; only the fabric dimensions change.

        Raises
        ------
        ConfigurationError
            If the requested region does not fit in the parent fabric.
        """
        if height is None:
            height = width
        if width > self.mesh_width or height > self.mesh_height:
            raise ConfigurationError(
                f"sub-mesh {width}x{height} does not fit in "
                f"{self.mesh_width}x{self.mesh_height} fabric of {self.name}"
            )
        return replace(
            self,
            name=f"{self.name}[{width}x{height}]",
            mesh_width=width,
            mesh_height=height,
        )

    def describe(self) -> Dict[str, object]:
        """Return the PLMR summary as a plain dictionary (for reports)."""
        return {
            "name": self.name,
            "P (cores)": self.num_cores,
            "L (max axis hops)": self.max_axis_hops,
            "M (bytes/core)": self.core_memory_bytes,
            "R (paths/core)": self.max_paths_per_core,
            "clock (GHz)": self.clock_hz / 1e9,
            "total memory (GB)": self.total_memory_bytes / 2**30,
            "peak (Tmac/s)": self.peak_macs_per_s / 1e12,
        }


def square_mesh_for(device: PLMRDevice, cores: int) -> PLMRDevice:
    """Return the largest square sub-mesh of ``device`` with <= ``cores``.

    Convenience used by auto-configuration: given a budget of cores, pick
    the biggest square region the fabric can host.
    """
    side = int(math.isqrt(cores))
    side = min(side, device.mesh_width, device.mesh_height)
    if side < 1:
        raise ConfigurationError(f"cannot build a mesh from {cores} cores")
    return device.submesh(side, side)
