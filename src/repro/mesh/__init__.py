"""The wafer-scale mesh substrate: topology, cores, fabric, machine, costs."""

from repro.mesh.topology import Coord, MeshTopology, shared_topology
from repro.mesh.core_sim import Core
from repro.mesh.fabric import FabricModel, Flow
from repro.mesh.flow_engine import (
    REDUCE_OPS,
    FlowBatch,
    encode_ports,
    segment_max,
)
from repro.mesh.machine import MeshMachine
from repro.mesh.program import MeshProgram, ProgramReplayError
from repro.mesh.trace import (
    BarrierRecord,
    CommRecord,
    ComputeRecord,
    FlowRecord,
    PhaseScope,
    Trace,
)
from repro.mesh.cost_model import (
    CommPhase,
    ComputePhase,
    KernelCost,
    LoopPhase,
    ReducePhase,
    estimate,
)
from repro.mesh.reconcile import (
    ReconcileReport,
    TimelineRow,
    Tolerances,
    reconcile,
    trace_cost,
    trace_timeline,
    trace_to_phases,
)
from repro.mesh.netsim import (
    FlowResult,
    FlowSpec,
    allgather_incast_slowdown,
    cannon_wraparound_slowdown,
    phase_makespan,
    simulate_flows,
)
from repro.mesh.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.mesh.remap import (
    DefectMap,
    LogicalRemap,
    RemappedTopology,
    build_remap,
    build_remapped_topology,
    normalize_link,
)
from repro.mesh.energy import (
    EnergyBreakdown,
    activity_energy,
    energy_ratio,
    wall_clock_energy,
)

__all__ = [
    "Coord",
    "MeshTopology",
    "shared_topology",
    "Core",
    "Flow",
    "FabricModel",
    "FlowBatch",
    "REDUCE_OPS",
    "encode_ports",
    "segment_max",
    "MeshMachine",
    "MeshProgram",
    "ProgramReplayError",
    "Trace",
    "CommRecord",
    "ComputeRecord",
    "BarrierRecord",
    "FlowRecord",
    "PhaseScope",
    "reconcile",
    "ReconcileReport",
    "Tolerances",
    "trace_cost",
    "trace_timeline",
    "trace_to_phases",
    "TimelineRow",
    "ComputePhase",
    "CommPhase",
    "ReducePhase",
    "LoopPhase",
    "KernelCost",
    "estimate",
    "FaultInjector",
    "FaultEvent",
    "FaultSchedule",
    "DefectMap",
    "LogicalRemap",
    "RemappedTopology",
    "build_remap",
    "build_remapped_topology",
    "normalize_link",
    "EnergyBreakdown",
    "activity_energy",
    "energy_ratio",
    "wall_clock_energy",
    "FlowSpec",
    "FlowResult",
    "simulate_flows",
    "phase_makespan",
    "cannon_wraparound_slowdown",
    "allgather_incast_slowdown",
]
