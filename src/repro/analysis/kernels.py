"""Sanitizer coverage of the kernel zoo: every tier-1 kernel, self-audited.

Runs each kernel of the profiling registry functionally and sanitizes
the trace it produced under its own device limits.  The *clean* suite —
every kernel the paper claims PLMR-compliant — must report zero
findings; the paper's intentional baselines (Cannon/SUMMA identity
placement, allgather GEMM, ring allreduce) are excluded because their L
violations are the point of Figures 6 and 8, and the tests assert the
sanitizer does flag them.

Remapped coverage builds the same kernels on a defective fabric (dead
core, dead link, degraded link — the PR 3 remap path) where shifts
legitimately pay detour hops; :func:`repro.analysis.sanitize.physical_shift_bound`
widens the bound accordingly, so the suite stays clean there too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.sanitize import (
    SanitizeReport,
    policy_for_machine,
    sanitize_machine,
    sanitize_trace,
)
from repro.core import PRESETS
from repro.errors import ConfigurationError
from repro.mesh.machine import MeshMachine
from repro.mesh.remap import DefectMap, normalize_link
from repro.profiling import all_kernel_names, build_case, run_case

#: Kernels that are *intentional* PLMR violators — the paper's baselines.
#: The sanitizer is expected to flag them, so they sit outside the clean
#: suite (tests assert the flagging).
INTENTIONAL_VIOLATORS = frozenset({
    "cannon",
    "summa",
    "allgather-gemm",
    "ring-allreduce",
    "ring-gemv",
})


def clean_kernel_names() -> List[str]:
    """The PLMR-compliant kernel suite (registry minus known violators)."""
    return [n for n in all_kernel_names() if n not in INTENTIONAL_VIOLATORS]


def sanitize_kernel(
    name: str,
    grid: int = 4,
    preset: str = "cerebras-wse2",
    dim: Optional[int] = None,
) -> SanitizeReport:
    """Run one kernel case functionally and sanitize its trace."""
    case = build_case(name, grid, dim=dim)
    machine = run_case(case, preset)
    return sanitize_machine(
        machine, subject=f"{name}@{case.mesh[0]}x{case.mesh[1]}"
    )


def sanitize_clean_suite(
    grid: int = 4, preset: str = "cerebras-wse2"
) -> List[SanitizeReport]:
    """Sanitize every clean-suite kernel; one report per kernel."""
    return [sanitize_kernel(name, grid, preset) for name in clean_kernel_names()]


def sanitize_attention(grid: int = 4) -> List[SanitizeReport]:
    """Sanitize the attention-path mesh ops (GEMM/GEMM-T/GEMV/softmax/RMSNorm).

    Drives the same :class:`~repro.llm.mesh_ops.MeshOpContext` wrappers
    the distributed transformer composes its forward pass from, then
    sanitizes every accumulated kernel trace.  Each launch gets its own
    trace even when the context replays it on a warm machine, and a
    warm machine's fabric carries the registrations of every earlier
    launch — so the per-trace forwarded colours, not the fabric, are
    what the sanitizer checks.
    """
    import numpy as np

    from repro.llm.mesh_ops import MeshOpContext

    ctx = MeshOpContext(grid=grid)
    rng = np.random.default_rng(7)
    d = 2 * grid
    q = rng.standard_normal((d, d))
    k = rng.standard_normal((d, d))
    v = rng.standard_normal((d, d))
    scores = ctx.gemm_t(q, k)
    weights = ctx.softmax_rows(scores)
    out = ctx.gemm(weights, v)
    ctx.gemv(out[0], v)
    ctx.rms_norm(out[0], np.ones(d), 1e-6)
    return _sanitize_traces(ctx, grid, ctx.traces, "attention")


def sanitize_decode(grid: int = 4) -> List[SanitizeReport]:
    """Sanitize the records a compiled ``TINY_GQA`` decode lists.

    A 3-token prefill, then three decode steps: KV lengths 4, 5 and 6
    cross from the padded length 4 to 8, so the run captures two decode
    tapes (one per padded length) and replays one.  Every distinct listed trace (a
    capture's live trace, or a sealed record that warm launches and
    layer replays share) is sanitized once.
    """
    import numpy as np

    from repro.llm.checkpoint import synthesize_weights
    from repro.llm.config import TINY_GQA
    from repro.llm.distributed import WaferTransformer
    from repro.llm.mesh_ops import MeshOpContext

    model = WaferTransformer(
        synthesize_weights(TINY_GQA, seed=0), ops=MeshOpContext(grid=grid)
    )
    token = int(np.argmax(model.prefill(np.array([1, 2, 3]))[-1]))
    for _ in range(3):
        token = int(np.argmax(model.decode_step(token)))
    distinct = {id(trace): (label, trace) for label, trace in model.ops.traces}
    return _sanitize_traces(model.ops, grid, distinct.values(), "decode")


def _sanitize_traces(ctx, grid: int, listed, prefix: str) -> List[SanitizeReport]:
    """Sanitize ``(label, trace)`` pairs under the limits of ``ctx``'s
    ``grid x grid`` submesh."""
    from repro.analysis.sanitize import SanitizePolicy

    device = ctx.device.submesh(grid, grid)
    policy = SanitizePolicy(
        core_memory_bytes=device.core_memory_bytes,
        max_paths_per_core=device.max_paths_per_core,
    )
    return [
        sanitize_trace(trace, policy, subject=f"{prefix}:{label}")
        for label, trace in listed
    ]


def _remapped_machine(
    grid: int, preset: str = "cerebras-wse2"
) -> MeshMachine:
    """A ``grid x grid`` logical mesh over a defective physical fabric.

    Mirrors the defect pattern of the remapped-kernel property tests:
    one dead core (forcing a remap displacement), one dead link (forcing
    a detour), and one degraded link (halving bandwidth).
    """
    if preset not in PRESETS:
        raise ConfigurationError(
            f"unknown device preset {preset!r}; choose from {list(PRESETS)}")
    pw, ph = grid + 1, grid + 1
    device = PRESETS[preset].submesh(pw, ph)
    defects = DefectMap(
        pw, ph,
        dead_cores=frozenset({(1, 1)}),
        dead_links=frozenset({normalize_link((2, 0), (2, 1))}),
        degraded_links={normalize_link((0, 0), (0, 1)): 0.5},
    )
    return MeshMachine(
        device,
        enforce_memory=False,
        defects=defects,
        logical_shape=(grid, grid),
    )


def sanitize_kernel_remapped(
    name: str, grid: int = 4, preset: str = "cerebras-wse2"
) -> SanitizeReport:
    """Run one kernel on a remapped (defective) fabric and sanitize it.

    The hop bound widens to the worst physical distance any legitimate
    (≤2 logical hops) shift pays on this fabric — detours are not
    violations, teleports still are.
    """
    case = build_case(name, grid)
    if case.mesh != (grid, grid):
        raise ConfigurationError(
            f"remapped sanitization needs a square-mesh kernel; "
            f"{name!r} wants {case.mesh}")
    machine = _remapped_machine(grid, preset)
    case.runner(machine)
    return sanitize_machine(machine, subject=f"{name}@remapped-{grid}x{grid}")


def run_kernel_checks(
    grid: int = 4,
    kernels: Optional[List[str]] = None,
    remapped: Tuple[str, ...] = ("meshgemm", "meshgemv"),
    preset: str = "cerebras-wse2",
) -> List[SanitizeReport]:
    """The full sanitizer sweep ``repro check`` runs: clean suite,
    attention path, a compiled decode, and remapped variants."""
    names = kernels if kernels is not None else clean_kernel_names()
    reports = [sanitize_kernel(name, grid, preset) for name in names]
    if kernels is None:
        reports.extend(sanitize_attention(grid))
        reports.extend(sanitize_decode(grid))
    for name in remapped:
        reports.append(sanitize_kernel_remapped(name, grid, preset))
    return reports
