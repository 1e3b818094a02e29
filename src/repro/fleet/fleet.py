"""Fleet composition: N wafers, each a resumable serving engine.

:class:`WaferFleet` owns the replica set.  Each wafer is one
:class:`~repro.serving.chunked.WaferServer` configured with
``fail_on_exhausted_spares=True`` — in a fleet a wafer whose escalation
ladder runs out of spares must surface as *down* (so the router can
evacuate its sessions) rather than degrade in place the way a lone wafer
would.  Each live wafer runs as a :class:`ServeEngine`, the stepping
form of the serving loop, which lets the router advance every wafer's
clock to a common event time, submit requests mid-run, and drain
unfinished sessions when a wafer dies.

Wafers live in *epochs*: when the router retires a dead wafer and later
readmits it, :meth:`replace` boots a fresh server (empty KV, clean
health ledger, a fresh per-epoch fault-injector stream derived from the
fleet seed) whose engine clock starts at the readmission time.  Every
retired epoch contributes one :class:`ServingMetrics` segment to the
fleet rollup, so the per-wafer accounting stays exact across reboots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.plmr import PLMRDevice
from repro.errors import ConfigurationError, require_positive_int
from repro.llm.config import ModelConfig
from repro.mesh.faults import FaultInjector, FaultSchedule, derive_seed
from repro.serving.chunked import ServeEngine, WaferServer
from repro.serving.metrics import ServingMetrics


@dataclass
class FleetConfig:
    """Shape of the replica set and of each wafer in it.

    ``wafer_fault_schedules`` optionally gives wafer ``i`` its own
    intra-wafer :class:`FaultSchedule` (transients, retrains, core
    deaths); it applies to epoch 0 only — a rebooted wafer starts with a
    clean fabric.  ``failure_rate`` seeds an independent Bernoulli
    step-killer per wafer and epoch, derived from the fleet ``seed``.
    ``horizon`` selects the macro-stepped serving loop on every engine
    (the default); ``False`` pins the per-event reference loop, which the
    differential sweep uses as its bit-identity oracle.
    """

    n_wafers: int = 3
    chunk_tokens: int = 256
    default_context_len: int = 4096
    spare_regions: Optional[int] = None
    failure_rate: float = 0.0
    seed: int = 0
    wafer_fault_schedules: Optional[Sequence[Optional[FaultSchedule]]] = None
    horizon: bool = True

    def __post_init__(self) -> None:
        require_positive_int("n_wafers", self.n_wafers)
        if (
            self.wafer_fault_schedules is not None
            and len(self.wafer_fault_schedules) != self.n_wafers
        ):
            raise ConfigurationError(
                f"wafer_fault_schedules must have one entry per wafer "
                f"({len(self.wafer_fault_schedules)} != {self.n_wafers})"
            )


class WaferFleet:
    """The replica set: engines, epochs, and retired-segment ledger."""

    def __init__(
        self,
        model: ModelConfig,
        device: PLMRDevice,
        config: Optional[FleetConfig] = None,
    ):
        self.model = model
        self.device = device
        self.config = config or FleetConfig()
        n = self.config.n_wafers
        self.epochs: List[int] = [0] * n
        self.up: List[bool] = [True] * n
        self.segments: List[List[ServingMetrics]] = [[] for _ in range(n)]
        self.engines: List[Optional[ServeEngine]] = []
        for wafer in range(n):
            server = self._make_server(wafer, epoch=0)
            self.engines.append(
                ServeEngine(server, start_s=0.0,
                            horizon=self.config.horizon)
            )

    @property
    def n_wafers(self) -> int:
        return self.config.n_wafers

    def _make_server(self, wafer: int, epoch: int) -> WaferServer:
        """Build one wafer's server for the given epoch.

        The Bernoulli injector gets an independent stream per wafer and
        epoch, derived from the fleet seed — same seed, same fleet-wide
        failure story.  The intra-wafer fault schedule applies to epoch
        0 only: a rebooted wafer starts on a clean fabric.
        """
        cfg = self.config
        injector = FaultInjector(
            cfg.failure_rate,
            seed=derive_seed(cfg.seed, f"wafer{wafer}-epoch{epoch}-faults"),
        )
        schedule = None
        if epoch == 0 and cfg.wafer_fault_schedules is not None:
            schedule = cfg.wafer_fault_schedules[wafer]
        return WaferServer(
            self.model,
            self.device,
            chunk_tokens=cfg.chunk_tokens,
            fault_injector=injector,
            default_context_len=cfg.default_context_len,
            fault_schedule=schedule,
            spare_regions=cfg.spare_regions,
            fail_on_exhausted_spares=True,
        )

    # ------------------------------------------------------------------
    def engine(self, wafer: int) -> ServeEngine:
        """The live engine of wafer ``wafer`` (must be up)."""
        eng = self.engines[wafer]
        if eng is None:
            raise ConfigurationError(f"wafer {wafer} is retired")
        return eng

    def retire(self, wafer: int) -> None:
        """Close a dead wafer's books; it stops advancing until replaced."""
        eng = self.engines[wafer]
        if eng is None:
            return
        self.segments[wafer].append(eng.finish())
        self.engines[wafer] = None
        self.up[wafer] = False

    def replace(self, wafer: int, at_s: float) -> ServeEngine:
        """Boot a fresh epoch of wafer ``wafer`` at fleet time ``at_s``."""
        self.epochs[wafer] += 1
        server = self._make_server(wafer, epoch=self.epochs[wafer])
        eng = ServeEngine(server, start_s=at_s, horizon=self.config.horizon)
        self.engines[wafer] = eng
        self.up[wafer] = True
        return eng

    def finalize(self) -> None:
        """Close every still-live engine into its segment list."""
        for wafer, eng in enumerate(self.engines):
            if eng is not None:
                self.segments[wafer].append(eng.finish())
                self.engines[wafer] = None

    def makespan_s(self) -> float:
        """Latest wafer clock across live engines and closed segments."""
        latest = 0.0
        for segments in self.segments:
            for seg in segments:
                latest = max(latest, seg.makespan_s)
        for eng in self.engines:
            if eng is not None and math.isfinite(eng.now):
                latest = max(latest, eng.now)
        return latest
