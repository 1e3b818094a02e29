"""Simulator micro-benchmarks: what compiled execution actually buys.

The cost model answers "how fast is the *wafer*"; this module answers
"how fast is the *simulator*" — the wall-clock price of one functional
decode step, prefill GEMM, or allreduce, with and without the compiled
execution layer (route caching + capture/replay + vectorized tile
compute, see DESIGN.md §10).

Timing discipline: the container this runs in is noisy (2-8x swings
between runs), so every benchmark interleaves its modes round-robin and
keeps the per-mode **minimum** over many rounds — ambient load then hits
all modes equally and the floor approximates the true cost.  Reported
*ratios* (replay vs capture, vectorized vs scalar) are therefore far
more stable than the absolute milliseconds, and the CI regression check
compares only ratios.

``run_benchmarks`` returns a plain dict; ``python -m repro bench``
writes it to ``BENCH_simulator.json`` at the repo root, which is the
single source the EXPERIMENTS.md generator and the CI perf-smoke step
read.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core import WSE2

#: Canonical artifact name, written at the repository root.
BENCH_FILENAME = "BENCH_simulator.json"
SCHEMA_VERSION = 1

#: CI warns (non-blocking) when a speedup ratio degrades by more than
#: this fraction relative to the committed baseline.
REGRESSION_TOLERANCE = 0.20


def _interleaved_best(
    modes: Dict[str, Callable[[], int]], rounds: int
) -> Dict[str, float]:
    """Per-mode best seconds-per-iteration over interleaved rounds.

    Each callable runs one round and returns the number of iterations it
    performed; modes alternate within every round so transient load
    penalises all of them equally.
    """
    best = {name: float("inf") for name in modes}
    for _ in range(rounds):
        for name, fn in modes.items():
            t0 = time.perf_counter()
            iters = fn()
            dt = (time.perf_counter() - t0) / iters
            if dt < best[name]:
                best[name] = dt
    return best


# ---------------------------------------------------------------------------
# Individual benchmarks
# ---------------------------------------------------------------------------
def bench_decode_gemv(smoke: bool = False) -> Dict[str, float]:
    """Repeated decode-step GEMV: eager vs per-call capture vs replay.

    The decode workhorse — ``[1, k] @ [k, n]`` against stationary
    weights — run through :class:`~repro.llm.mesh_ops.MeshOpContext`
    three ways: the eager reference path, the compiled path with caches
    cleared before every call (so each step pays a full capture), and
    the compiled path warm (weight-stationary replay).
    """
    from repro.llm.mesh_ops import MeshOpContext

    # Smoke keeps the full shapes (ratios must be comparable with the
    # committed baseline) and only cuts repetitions.
    grid, dim = 8, 64
    iters = 10 if smoke else 50
    rounds = 3 if smoke else 12

    rng = np.random.default_rng(0)
    weights = rng.standard_normal((dim, dim)).astype(np.float32)
    vecs = [rng.standard_normal(dim).astype(np.float32) for _ in range(iters)]

    eager = MeshOpContext(device=WSE2, grid=grid, compiled=False)
    cold = MeshOpContext(device=WSE2, grid=grid, vectorize=True)
    warm = MeshOpContext(device=WSE2, grid=grid, vectorize=True)
    # The first sighting captures; the second makes the weights stationary.
    warm.gemv(vecs[0], weights)
    warm.gemv(vecs[0], weights)

    def run_eager() -> int:
        for vec in vecs:
            eager.gemv(vec, weights)
        return iters

    def run_capture() -> int:
        for vec in vecs:
            cold._resident.clear()
            cold.gemv(vec, weights)
        return iters

    def run_replay() -> int:
        for vec in vecs:
            warm.gemv(vec, weights)
        return iters

    best = _interleaved_best(
        {"eager": run_eager, "capture": run_capture, "replay": run_replay},
        rounds,
    )
    # Replay must stay bit-exact with the eager reference.
    for vec in vecs[: min(4, iters)]:
        if not np.array_equal(eager.gemv(vec, weights),
                              warm.gemv(vec, weights)):
            raise AssertionError("replayed GEMV diverged from eager path")
    return {
        "grid": grid,
        "dim": dim,
        "eager_ms": best["eager"] * 1e3,
        "capture_ms": best["capture"] * 1e3,
        "replay_ms": best["replay"] * 1e3,
        "replay_vs_capture": best["capture"] / best["replay"],
        "replay_vs_eager": best["eager"] / best["replay"],
        # The warm replay path *is* the batched flow engine (compiled
        # tape + SoA comm records); this key names the ratio the CI
        # perf-smoke step and the PR 6 acceptance criterion track.
        "batched_vs_eager": best["eager"] / best["replay"],
    }


def bench_prefill_gemm(smoke: bool = False) -> Dict[str, float]:
    """Prefill GEMM: eager vs compiled replay, plus vectorize on/off.

    Prefill runs the *same-shaped* MeshGEMM once per layer, so after the
    first layer captures the program every later layer replays it —
    skipping route walks, flow-record construction, and fabric
    registration (the dominant cost; the kernel is comm-bound in the
    simulator).  ``vectorized_vs_scalar`` additionally reports the
    stacked-compute path against the per-core loop on the eager kernel;
    it is roughly neutral at paper tile sizes because per-core tile
    bookkeeping, not arithmetic, bounds the simulator (see DESIGN.md
    §10).
    """
    from repro.llm.mesh_ops import MeshOpContext

    grid, dim = 8, 64
    iters = 2 if smoke else 8
    rounds = 3 if smoke else 8

    rng = np.random.default_rng(1)
    mats = [
        (rng.standard_normal((dim, dim)).astype(np.float32),
         rng.standard_normal((dim, dim)).astype(np.float32))
        for _ in range(iters)
    ]

    eager = MeshOpContext(device=WSE2, grid=grid, compiled=False)
    compiled = MeshOpContext(device=WSE2, grid=grid)
    stacked = MeshOpContext(device=WSE2, grid=grid, compiled=False,
                            vectorize=True)
    compiled.gemm(*mats[0])  # one-time capture

    def run_eager() -> int:
        for a, b in mats:
            eager.gemm(a, b)
        return iters

    def run_replay() -> int:
        for a, b in mats:
            compiled.gemm(a, b)
        return iters

    def run_vectorized() -> int:
        for a, b in mats:
            stacked.gemm(a, b)
        return iters

    best = _interleaved_best(
        {"eager": run_eager, "replay": run_replay,
         "vectorized": run_vectorized},
        rounds,
    )
    a, b = mats[0]
    expected = eager.gemm(a, b)
    if not np.array_equal(expected, compiled.gemm(a, b)):
        raise AssertionError("replayed GEMM diverged from eager path")
    if not np.array_equal(expected, stacked.gemm(a, b)):
        raise AssertionError("vectorized GEMM diverged from eager path")
    return {
        "grid": grid,
        "dim": dim,
        "eager_ms": best["eager"] * 1e3,
        "replay_ms": best["replay"] * 1e3,
        "vectorized_ms": best["vectorized"] * 1e3,
        "replay_vs_eager": best["eager"] / best["replay"],
        "vectorized_vs_scalar": best["eager"] / best["vectorized"],
    }


def bench_allreduce(smoke: bool = False) -> Dict[str, float]:
    """Line allreduce (K-tree): eager vs compiled capture/replay."""
    from repro.llm.mesh_ops import MeshOpContext

    grid, length = 8, 256
    iters = 10 if smoke else 50
    rounds = 3 if smoke else 12

    rng = np.random.default_rng(2)
    vals = [rng.standard_normal(length).astype(np.float64)
            for _ in range(iters)]

    eager = MeshOpContext(device=WSE2, grid=grid, compiled=False)
    warm = MeshOpContext(device=WSE2, grid=grid)
    warm.reduce_sum(vals[0])  # one-time capture

    def run_eager() -> int:
        for v in vals:
            eager.reduce_sum(v)
        return iters

    def run_replay() -> int:
        for v in vals:
            warm.reduce_sum(v)
        return iters

    best = _interleaved_best(
        {"eager": run_eager, "replay": run_replay}, rounds
    )
    for v in vals[: min(4, iters)]:
        if eager.reduce_sum(v) != warm.reduce_sum(v):
            raise AssertionError("replayed allreduce diverged from eager path")
    return {
        "grid": grid,
        "length": length,
        "eager_ms": best["eager"] * 1e3,
        "replay_ms": best["replay"] * 1e3,
        "replay_vs_eager": best["eager"] / best["replay"],
    }


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------
def run_benchmarks(smoke: bool = False) -> Dict[str, object]:
    """Run the full simulator benchmark suite and return the report dict."""
    return {
        "schema": SCHEMA_VERSION,
        "suite": "simulator",
        "smoke": smoke,
        "benchmarks": {
            "decode_gemv": bench_decode_gemv(smoke),
            "prefill_gemm": bench_prefill_gemm(smoke),
            "allreduce": bench_allreduce(smoke),
        },
    }


#: name -> (path into the benchmarks dict, higher-is-better ratio key)
RATIO_KEYS = {
    "decode_gemv.replay_vs_capture": ("decode_gemv", "replay_vs_capture"),
    "decode_gemv.replay_vs_eager": ("decode_gemv", "replay_vs_eager"),
    "decode_gemv.batched_vs_eager": ("decode_gemv", "batched_vs_eager"),
    "prefill_gemm.replay_vs_eager": ("prefill_gemm", "replay_vs_eager"),
    "prefill_gemm.vectorized_vs_scalar": (
        "prefill_gemm", "vectorized_vs_scalar"),
    "allreduce.replay_vs_eager": ("allreduce", "replay_vs_eager"),
}


def compare_to_baseline(
    report: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = REGRESSION_TOLERANCE,
) -> List[str]:
    """Machine-independent regression check: compare speedup *ratios*.

    Absolute milliseconds differ per machine; the ratio of two modes
    measured back-to-back on the same machine is portable.  Returns a
    list of human-readable warnings (empty when no ratio degraded by
    more than ``tolerance``).
    """
    warnings: List[str] = []
    new = report.get("benchmarks", {})
    old = baseline.get("benchmarks", {})
    for label, (bench, key) in RATIO_KEYS.items():
        try:
            current = float(new[bench][key])
            reference = float(old[bench][key])
        except (KeyError, TypeError, ValueError):
            continue
        if reference <= 0:
            continue
        if current < reference * (1.0 - tolerance):
            warnings.append(
                f"{label}: {current:.2f}x is more than "
                f"{tolerance:.0%} below baseline {reference:.2f}x"
            )
    return warnings


def write_report(report: Dict[str, object], path: Path) -> None:
    """Write the benchmark report as stable, diff-friendly JSON."""
    rounded = json.loads(json.dumps(report), parse_float=lambda s: round(float(s), 4))
    path.write_text(json.dumps(rounded, indent=2, sort_keys=True) + "\n")


def load_report(path: Path) -> Optional[Dict[str, object]]:
    """Load a committed benchmark report; ``None`` when absent/corrupt."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None
