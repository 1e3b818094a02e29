"""One harness for every kernel: run it, plan it, reconcile the two.

The phase-stream refactor makes each functional execution produce a
replayable trace (:mod:`repro.mesh.trace`) that lowers into the same
analytic phase vocabulary the ``plan()`` builders speak
(:mod:`repro.mesh.reconcile`).  This module is the registry that ties
the two sides together per kernel: a :class:`KernelCase` pairs a
functional runner (which also checks the numerics against dense numpy)
with its analytic plan builder on one concrete problem size.

Two consumers share it:

* ``tests/test_reconcile.py`` sweeps every case over several grids and
  device presets, asserting plan-vs-trace agreement within the named
  :class:`~repro.mesh.reconcile.Tolerances`;
* the ``repro profile`` CLI replays a case's trace into a per-step
  compute/comm timeline (the Figure 9/10 breakdown) without re-running
  the kernel.

Cases use float64 operands (``dtype_bytes=8``) so the traced payloads
match the plans exactly, and default to problem sizes that keep each
core's tile small but non-degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.collectives.allreduce import (
    broadcast_from_root,
    ktree_reduce,
    pipeline_reduce,
    ring_allreduce,
)
from repro.collectives.plans import (
    ktree_reduce_plan,
    pipeline_reduce_plan,
    ring_allreduce_plan,
    root_broadcast_plan,
)
from repro.core import PRESETS
from repro.errors import ConfigurationError
from repro.gemm import GEMM_KERNELS
from repro.gemm.base import GemmShape
from repro.gemm.gemm_t import MeshGEMMTransposed
from repro.gemm.nonsquare import MeshGEMMNonSquare
from repro.gemv import GEMV_KERNELS
from repro.gemv.base import GemvShape
from repro.gemv.meshgemv import meshgemv_with_k
from repro.mesh.cost_model import Phase
from repro.mesh.faults import derive_seed
from repro.mesh.machine import MeshMachine
from repro.mesh.reconcile import (
    ReconcileReport,
    TimelineRow,
    Tolerances,
    reconcile,
    trace_timeline,
)
from repro.ops.normalization import DistributedRMSNorm, DistributedSoftmax


@dataclass(frozen=True)
class KernelCase:
    """One kernel at one concrete problem size, with both twins bound.

    ``runner`` executes the kernel on a machine (and asserts its output
    against dense numpy); ``planner`` builds the matching analytic
    phases.  ``mesh`` is the fabric ``(width, height)`` the case needs.
    """

    name: str
    family: str  # "gemm" | "gemv" | "collective" | "norm"
    mesh: Tuple[int, int]
    dim: int
    runner: Callable[[MeshMachine], None]
    planner: Callable[[], List[Phase]]


# ----------------------------------------------------------------------
# case builders
# ----------------------------------------------------------------------

def _rng(name: str, grid: int, dim: int) -> np.random.Generator:
    # Deterministic per case so reruns replay byte-identical traces.
    # derive_seed, not builtin hash(): str hashes are salted per process
    # (PYTHONHASHSEED), so hash-derived seeds would not replay across runs.
    seed = derive_seed(grid * 1_000_003 + dim, name) % (2**32)
    return np.random.default_rng(seed)


def _gemm_case(name: str, kernel, grid: int, dim: Optional[int]) -> KernelCase:
    if dim is None:
        dim = 4 * grid
    shape = GemmShape.square(dim, dtype_bytes=8)
    rng = _rng(name, grid, dim)
    a = rng.standard_normal((dim, dim))
    b = rng.standard_normal((dim, dim))
    want = a @ b.T if kernel is MeshGEMMTransposed else a @ b

    def runner(machine: MeshMachine) -> None:
        out = kernel.run(machine, a, b)
        np.testing.assert_allclose(out, want, rtol=1e-9, atol=1e-9)

    return KernelCase(
        name=name, family="gemm", mesh=(grid, grid), dim=dim,
        runner=runner, planner=lambda: kernel.plan(shape, grid),
    )


def _nonsquare_case(name: str, grid: int, dim: Optional[int],
                    height: Optional[int]) -> KernelCase:
    nw, nh = grid, height if height is not None else grid + 1
    if dim is None:
        dim = 2 * math.lcm(nh, nw)
    shape = GemmShape.square(dim, dtype_bytes=8)
    rng = _rng(name, nw * 100 + nh, dim)
    a = rng.standard_normal((dim, dim))
    b = rng.standard_normal((dim, dim))

    def runner(machine: MeshMachine) -> None:
        out = MeshGEMMNonSquare.run(machine, a, b)
        np.testing.assert_allclose(out, a @ b, rtol=1e-9, atol=1e-9)

    return KernelCase(
        name=name, family="gemm", mesh=(nw, nh), dim=dim,
        runner=runner, planner=lambda: MeshGEMMNonSquare.plan(shape, nh, nw),
    )


def _gemv_case(name: str, kernel, grid: int, dim: Optional[int]) -> KernelCase:
    if dim is None:
        dim = 8 * grid
    shape = GemvShape.square(dim, dtype_bytes=8)
    rng = _rng(name, grid, dim)
    a = rng.standard_normal(dim)
    b = rng.standard_normal((dim, dim))

    def runner(machine: MeshMachine) -> None:
        out = kernel.run(machine, a, b)
        np.testing.assert_allclose(out, a @ b, rtol=1e-9, atol=1e-9)

    return KernelCase(
        name=name, family="gemv", mesh=(grid, grid), dim=dim,
        runner=runner, planner=lambda: kernel.plan(shape, grid),
    )


def _norm_case(name: str, grid: int, dim: Optional[int]) -> KernelCase:
    if dim is None:
        dim = 8 * grid
    rng = _rng(name, grid, dim)
    x = rng.standard_normal(dim)

    if name == "rmsnorm":
        weight = rng.standard_normal(dim)
        eps = 1e-6
        want = x / np.sqrt(np.mean(x * x) + eps) * weight

        def runner(machine: MeshMachine) -> None:
            out = DistributedRMSNorm.run(machine, x, weight, eps)
            np.testing.assert_allclose(out, want, rtol=1e-9, atol=1e-9)

        planner = lambda: DistributedRMSNorm.plan(grid, dim)  # noqa: E731
    else:
        exps = np.exp(x - np.max(x))
        want = exps / exps.sum()

        def runner(machine: MeshMachine) -> None:
            out = DistributedSoftmax.run(machine, x)
            np.testing.assert_allclose(out, want, rtol=1e-9, atol=1e-9)

        planner = lambda: DistributedSoftmax.plan(grid, dim)  # noqa: E731

    return KernelCase(
        name=name, family="norm", mesh=(grid, 1), dim=dim,
        runner=runner, planner=planner,
    )


def _collective_case(name: str, grid: int, dim: Optional[int]) -> KernelCase:
    """Row-wise reduction of per-core float64 vectors of length ``dim``."""
    if dim is None:
        dim = 16
    rng = _rng(name, grid, dim)
    data = rng.standard_normal((grid, dim))
    payload_bytes = float(dim * 8)

    def _scatter(machine: MeshMachine) -> List[Tuple[int, int]]:
        line = machine.topology.row(0)
        for x, coord in enumerate(line):
            machine.place("coll.v", coord, np.array(data[x], copy=True))
        return line

    if name == "pipeline-reduce":
        def runner(machine: MeshMachine) -> None:
            line = _scatter(machine)
            roots = pipeline_reduce(machine, [line], "coll.v",
                                    pattern="pipeline-reduce")
            got = machine.core(roots[0]).load("coll.v")
            np.testing.assert_allclose(got, data.sum(axis=0))

        planner = lambda: pipeline_reduce_plan(  # noqa: E731
            grid, payload_bytes, float(dim))
    elif name == "ring-allreduce":
        def runner(machine: MeshMachine) -> None:
            line = _scatter(machine)
            ring_allreduce(machine, [line], "coll.v",
                           pattern="ring-allreduce")
            for coord in line:
                np.testing.assert_allclose(
                    machine.core(coord).load("coll.v"), data.sum(axis=0))

        planner = lambda: ring_allreduce_plan(  # noqa: E731
            grid, payload_bytes, float(dim))
    elif name == "ktree-allreduce":
        def runner(machine: MeshMachine) -> None:
            line = _scatter(machine)
            roots = ktree_reduce(machine, [line], "coll.v", k=2,
                                 pattern_prefix="ktree")
            broadcast_from_root(machine, [line], roots, "coll.v",
                                pattern="ktree-bcast")
            for coord in line:
                np.testing.assert_allclose(
                    machine.core(coord).load("coll.v"), data.sum(axis=0))

        planner = lambda: (  # noqa: E731
            ktree_reduce_plan(grid, payload_bytes, float(dim), k=2)
            + root_broadcast_plan(grid, payload_bytes))
    else:  # pragma: no cover - guarded by build_case
        raise ConfigurationError(f"unknown collective case {name!r}")

    return KernelCase(
        name=name, family="collective", mesh=(grid, 1), dim=dim,
        runner=runner, planner=planner,
    )


#: Every profilable kernel, by registry name.  Values are families used
#: to dispatch the builder; ``all_kernel_names()`` is the public list.
_FAMILIES: Dict[str, str] = {
    **{name: "gemm" for name in GEMM_KERNELS},
    "meshgemm-t": "gemm",
    "meshgemm-nonsquare": "nonsquare",
    **{name: "gemv" for name in GEMV_KERNELS},
    "meshgemv-k3": "gemv-k",
    "meshgemv-k4": "gemv-k",
    "rmsnorm": "norm",
    "softmax": "norm",
    "pipeline-reduce": "collective",
    "ring-allreduce": "collective",
    "ktree-allreduce": "collective",
}


def all_kernel_names() -> List[str]:
    """Names accepted by :func:`build_case`, in a stable order."""
    return list(_FAMILIES)


def build_case(
    name: str,
    grid: int,
    dim: Optional[int] = None,
    height: Optional[int] = None,
) -> KernelCase:
    """Build the :class:`KernelCase` for one kernel at one size.

    ``grid`` is the fabric side (square kernels) or width (non-square
    MeshGEMM, where ``height`` selects the other side and defaults to
    ``grid + 1``).  ``dim`` overrides the default problem dimension.
    """
    family = _FAMILIES.get(name)
    if family is None:
        raise ConfigurationError(
            f"unknown kernel {name!r}; choose from {all_kernel_names()}")
    for label, value in (("grid", grid), ("dim", dim), ("height", height)):
        if value is not None and value < 1:
            raise ConfigurationError(f"{label} must be >= 1, got {value}")
    if family == "gemm":
        kernel = GEMM_KERNELS.get(name, MeshGEMMTransposed)
        return _gemm_case(name, kernel, grid, dim)
    if family == "nonsquare":
        return _nonsquare_case(name, grid, dim, height)
    if family == "gemv":
        return _gemv_case(name, GEMV_KERNELS[name], grid, dim)
    if family == "gemv-k":
        k = int(name.rsplit("-k", 1)[1])
        return _gemv_case(name, meshgemv_with_k(k), grid, dim)
    if family == "norm":
        return _norm_case(name, grid, dim)
    return _collective_case(name, grid, dim)


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------

def run_case(case: KernelCase, preset: str = "cerebras-wse2") -> MeshMachine:
    """Execute a case functionally; returns the machine with its trace."""
    if preset not in PRESETS:
        raise ConfigurationError(
            f"unknown device preset {preset!r}; choose from {list(PRESETS)}")
    width, height = case.mesh
    device = PRESETS[preset].submesh(width, height)
    machine = MeshMachine(device, enforce_memory=False)
    case.runner(machine)
    return machine


def reconcile_case(
    case: KernelCase,
    preset: str = "cerebras-wse2",
    tolerances: Optional[Tolerances] = None,
) -> ReconcileReport:
    """Run one case and reconcile its plan against its own trace."""
    machine = run_case(case, preset)
    return reconcile(
        case.planner(), machine.trace, machine.device,
        name=f"{case.name}@{case.mesh[0]}x{case.mesh[1]}",
        tolerances=tolerances,
    )


def timeline_case(
    case: KernelCase, preset: str = "cerebras-wse2"
) -> Tuple[MeshMachine, List[TimelineRow]]:
    """Run one case and replay its trace into a per-step timeline."""
    machine = run_case(case, preset)
    return machine, trace_timeline(machine.trace, machine.device)
