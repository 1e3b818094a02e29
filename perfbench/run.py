"""Seeded end-to-end and per-layer benchmark of both WaferLLM stacks.

Usage (from the repository root)::

    python3 perfbench/run.py                      # all workloads, seed 0
    python3 perfbench/run.py --workload fleet_at_load --seed 3 \\
        --seconds 10 --trace 1

Each timed run is preceded by its own set-up (a cold step-cost cache
and a new fleet, or a new engine); runs repeat for ``--seconds``
(default: ``run_seconds`` of BENCHMARK.json; at least three runs).
Each run's host time is scaled to a reference host speed by a
calibration loop timed before and after it; throughputs are medians
over runs.  ``setup_s`` is the median over fresh interpreters, scaled
by bare interpreter start-ups.  With
``--trace 1`` one more run follows with every layer's public functions
wrapped (see ``layers.py``), and the per-layer metrics replace the
end-to-end ones.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The program exits 1
when an output check fails and 2 when the repository is missing.
"""

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

import numpy as np

from common import Outcome, expected_record, record_problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOADS = ("fleet_at_load", "fleet_decode_heavy", "functional_generate")
MIN_RUNS = 3
SETUP_SAMPLES = 5
#: A fresh interpreter doing exactly what a run of the benchmark does
#: before its first timed call: imports, input generation, one build.
SETUP_SNIPPET = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import run; "
    "run.load_workload(sys.argv[3], int(sys.argv[4])).build()"
)
#: A fresh interpreter that only imports numpy: the start-up cost that no
#: change to the repository can move, timed next to every set-up sample.
BARE_SNIPPET = "import numpy"
#: Seconds BARE_SNIPPET takes on the reference host when uncontended
#: (0.156-0.166 s measured).  Start-up time drifts with the host too, but
#: does not follow the calibration loop; it does follow a bare start-up
#: (over 14 samples, the spread fell from 0.245 raw to 0.119 scaled).
STARTUP_REFERENCE_S = 0.16
#: Seconds :func:`calibration_s` takes on the reference host, a 2-vCPU
#: x86 VM when uncontended (0.019-0.020 s measured).  A shared host
#: drifts in speed by 2x over minutes, which moved raw run times by more
#: than any bound.  Each run's host time is therefore scaled by the
#: reference over the loop times measured around it: a throughput reads
#: what the runs would have taken on the reference host.
CALIBRATION_REFERENCE_S = 0.020


def load_workload(name: str, seed: int):
    """Import only the stack the workload drives (import time is set-up)."""
    if name == "functional_generate":
        from functional_bench import FunctionalGenerate

        return FunctionalGenerate(seed)
    from fleet_bench import FleetAtLoad, FleetDecodeHeavy

    cls = FleetAtLoad if name == "fleet_at_load" else FleetDecodeHeavy
    return cls(seed)


def step_percentiles(steps) -> tuple:
    """p50 and p90 of a sample of decode-step times."""
    p90 = statistics.quantiles(steps, n=10, method="inclusive")[-1]
    return statistics.median(steps), p90


def check_runs(workload, seed: int, outcomes) -> list:
    """Output checks across runs: conservation/reference, replay, record."""
    problems = []
    for i, outcome in enumerate(outcomes):
        problems += [f"run {i}: {p}" for p in outcome.problems]
        if outcome.record != outcomes[0].record:
            problems.append(f"run {i}: outputs differ from run 0")
    expected = expected_record(workload.name, seed)
    if expected is not None:
        problems += [
            f"seed {seed} record: {p}"
            for p in record_problems(outcomes[0].record, expected)
        ]
    return problems


def calibration_s() -> float:
    """Host seconds of a fixed loop, fastest of three.

    The loop mixes what the two stacks spend their time on: dict
    traffic over a few megabytes, calls into numpy on tiny arrays, and a
    sort.  It imports nothing from the repository, so only the speed of
    the host moves it.
    """
    best = float("inf")
    for _ in range(3):
        rng = random.Random(0)
        keys = [rng.randrange(1 << 20) for _ in range(40_000)]
        tile = np.ones((4, 4))
        start = time.perf_counter()
        table = {}
        for key in keys:
            table[key] = table.get(key, 0.0) + 0.5
        acc = 0.0
        for _ in range(4_000):
            acc += float((tile @ tile)[0, 0])
        sorted(rng.random() for _ in range(30_000))
        best = min(best, time.perf_counter() - start)
    return best


def interpreter_s(*args: str) -> float:
    """Host seconds of one fresh interpreter running ``python -c``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", *args], check=True)
    return time.perf_counter() - start


def setup_seconds(name: str, seed: int) -> float:
    """Host seconds from process start to the first timed call.

    The median over :data:`SETUP_SAMPLES` fresh interpreters, scaled to
    the reference host by the median of bare start-ups timed between
    them.
    """
    setups, bares = [], []
    for _ in range(SETUP_SAMPLES):
        bares.append(interpreter_s(BARE_SNIPPET))
        setups.append(interpreter_s(
            SETUP_SNIPPET, str(HERE), str(SRC), name, str(seed)))
    return (statistics.median(setups) * STARTUP_REFERENCE_S
            / statistics.median(bares))


def timed_runs(workload, seconds: float):
    """Set up and time runs for at least ``seconds`` and MIN_RUNS runs.

    The calibration loop is timed before the first run and after every
    run.  Returns each run's raw host seconds, its speed (reference loop
    time over the mean of the two loops around it) and its outcome, and
    the last loop time.
    """
    run_s: List[float] = []
    speeds: List[float] = []
    outcomes: List[Outcome] = []
    loop_before = calibration_s()
    clock = time.perf_counter
    start = clock()
    while len(run_s) < MIN_RUNS or clock() - start < seconds:
        state = workload.build()
        t0 = clock()
        result = workload.run(state)
        run_s.append(clock() - t0)
        outcomes.append(workload.outcome(state, result))
        # Free this run's state outside any timed region.
        del state, result
        gc.collect()
        loop_after = calibration_s()
        speeds.append(speed_between(loop_before, loop_after))
        loop_before = loop_after
    return run_s, speeds, outcomes, loop_before


def speed_between(loop_before: float, loop_after: float) -> float:
    """Reference loop time over the mean loop time around a run."""
    return CALIBRATION_REFERENCE_S / ((loop_before + loop_after) / 2)


def traced_run(workload, loop_before: float, untraced_s: float,
               decode_steps_ms):
    """One more run with every layer wrapped; returns per-layer metrics.

    Per-layer times are raw host seconds of this run; only
    ``tracing_overhead`` compares its scaled time with the scaled
    median of the untraced runs.
    """
    from layers import EMPTY_FACTS, LayerTracer, layer_metrics

    state = workload.build()
    with LayerTracer() as tracer:
        t0 = time.perf_counter()
        result = workload.run(state)
        traced_s = time.perf_counter() - t0
    outcome = workload.outcome(state, result)
    speed = speed_between(loop_before, calibration_s())
    facts = dict(EMPTY_FACTS)
    facts.update(workload.facts(state, result, outcome))
    if decode_steps_ms:
        p50, p90 = step_percentiles(decode_steps_ms)
        facts["decode_step_ms_p50"] = p50
        facts["decode_step_ms_p90"] = p90
        facts["decode_steps"] = len(decode_steps_ms)
    metrics = layer_metrics(tracer, facts, traced_s)
    metrics["tracing_overhead"] = traced_s * speed / untraced_s
    return metrics, outcome, traced_s


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result dict, human-readable lines)."""
    setup_s = None if trace else setup_seconds(name, seed)
    workload = load_workload(name, seed)
    run_s, speeds, outcomes, last_loop = timed_runs(workload, seconds)
    n = len(run_s)
    # Host times are scaled to the reference host, then reduced to
    # medians over runs; decode-step percentiles pool every run.
    scaled_s = [t * v for t, v in zip(run_s, speeds)]
    decode_steps_ms = [
        1e3 * step * v for o, v in zip(outcomes, speeds) for step in o.step_s
    ]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    lines = [
        f"{name}  seed={seed}  runs={n}",
        "  run_s  " + " ".join(f"{t:.3f}" for t in run_s),
        "  speed  " + " ".join(f"{v:.3f}" for v in speeds),
    ]
    if trace:
        metrics, outcome, traced_s = traced_run(
            workload, last_loop, statistics.median(scaled_s),
            decode_steps_ms)
        outcomes.append(outcome)
        attempted += outcome.attempted
        failed += outcome.failed
        attributed = 1.0 - metrics["unattributed_s"] / traced_s
        lines.append(
            f"  traced run {traced_s:.3f} s, {attributed:.1%} attributed "
            f"to named layers, overhead {metrics['tracing_overhead']:.2f}x "
            f"over the untraced median of {n} runs"
        )
        samples = {}
    else:
        metrics = {
            "setup_s": setup_s,
            "sim_req_per_s": statistics.median(
                o.requests / t for o, t in zip(outcomes, scaled_s)),
            "gen_tok_per_s": statistics.median(
                o.tokens / t for o, t in zip(outcomes, scaled_s)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {
            "setup_s": SETUP_SAMPLES, "sim_req_per_s": n, "gen_tok_per_s": n,
            "peak_rss_mb": 1,
        }
    problems = check_runs(workload, seed, outcomes)
    for key, value in outcomes[0].record.items():
        if key != "tokens" or not isinstance(value, list):
            lines.append(f"  record {key} = {value}")
    if decode_steps_ms:
        p50, p90 = step_percentiles(decode_steps_ms)
        lines.append(
            f"  decode_step_ms p50={p50:.3f} p90={p90:.3f} "
            f"(n={len(decode_steps_ms)})"
        )
    lines.append(
        f"  failed {failed} of {attempted} attempted "
        f"(failed_frac {failed / attempted:.6g})"
    )
    lines += [f"  FAILED CHECK {p}" for p in problems]
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
    }, lines


def format_metrics(metrics, samples, units) -> list:
    return [
        f"  {name:36s} {value:14.6g} {units.get(name, '?'):12s}"
        + (f" n={samples[name]}" if name in samples else "")
        for name, value in metrics.items()
    ]


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]), flush=True)
        try:
            result = json.loads(out[-1])
        except json.JSONDecodeError:
            result = {"correct": False, "attempted": 0, "failed": 0,
                      "metrics": {}}
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(f"error: run from a repository checkout; {SRC / 'repro'} "
              f"or {SPEC_PATH} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    result, lines = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = result["metrics"]
    if set(metrics) == set(units):
        metrics = {name: metrics[name] for name in units}  # spec order
    else:
        lines.append(
            "  FAILED CHECK metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
        result["correct"] = False
    print("\n".join(lines))
    print("\n".join(format_metrics(metrics, result["samples"], units)))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units.get(name, "")}
            for name in metrics
        },
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
