"""Golden-trace regression fixtures for the flow engine and cost model.

Each fixture in ``tests/golden/`` freezes one deterministic workload —
MeshGEMV/MeshGEMM with seeded integer operands on a clean or a
bandwidth-degraded 4x4 fabric — as a canonical phase stream (every
flow's src/dsts/nbytes/hops/bw_factor), the batched per-phase ingress
bottlenecks, the cost-model cycle totals, the phase timeline, and the
numeric result.  Operands are integers and degradation factors dyadic,
so every float in the fixture is exact and the comparison is ``==``,
not approx: any change to routing, contention accounting, phase
structure, or the cost model shows up as a diff against the committed
JSON rather than a silent drift.

Regenerate after an *intentional* semantic change with::

    PYTHONPATH=src python tests/test_golden_traces.py --regenerate

and review the fixture diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.sanitize import policy_for_machine, sanitize_trace
from repro.core.device_presets import TINY_MESH
from repro.gemm.base import GemmShape
from repro.gemm.meshgemm import MeshGEMM
from repro.gemv.base import GemvShape
from repro.gemv.meshgemv import MeshGEMV
from repro.mesh.machine import MeshMachine
from repro.mesh.reconcile import reconcile, trace_cost, trace_timeline
from repro.mesh.remap import DefectMap, normalize_link
from repro.mesh.trace import CommRecord, FlowRecord

GRID = 4
DIM = 8
SEED = 20260807

GOLDEN_DIR = Path(__file__).parent / "golden"


def _clean_machine(vectorize: bool = False) -> MeshMachine:
    return MeshMachine(TINY_MESH.submesh(GRID, GRID), vectorize=vectorize)


def _degraded_machine(vectorize: bool = False) -> MeshMachine:
    """Full-size fabric, no remap — only dyadic bandwidth degradation."""
    defects = DefectMap(
        GRID, GRID,
        degraded_links={
            normalize_link((1, 0), (2, 0)): 0.5,
            normalize_link((0, 2), (0, 3)): 0.25,
        },
    )
    return MeshMachine(
        TINY_MESH.submesh(GRID, GRID),
        defects=defects,
        logical_shape=(GRID, GRID),
        vectorize=vectorize,
    )


WORKLOADS = {
    "meshgemv_clean": (MeshGEMV, _clean_machine),
    "meshgemv_degraded": (MeshGEMV, _degraded_machine),
    "meshgemm_clean": (MeshGEMM, _clean_machine),
    "meshgemm_degraded": (MeshGEMM, _degraded_machine),
}

WORKLOAD_IDS = sorted(WORKLOADS)


def _operands(kernel):
    rng = np.random.default_rng(SEED)
    if kernel is MeshGEMV:
        return (rng.integers(-4, 5, size=(1, DIM)).astype(np.float64),
                rng.integers(-4, 5, size=(DIM, DIM)).astype(np.float64))
    return (rng.integers(-4, 5, size=(DIM, DIM)).astype(np.float64),
            rng.integers(-4, 5, size=(DIM, DIM)).astype(np.float64))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
def _flow_json(flow: FlowRecord) -> dict:
    return {
        "src": [int(c) for c in flow.src],
        "dsts": [[int(c) for c in d] for d in flow.dsts],
        "nbytes": int(flow.nbytes),
        "hops": int(flow.hops),
        "bw": float(flow.bw_factor),
        "src_name": flow.src_name,
        "dst_name": flow.dst_name,
    }


def _phase_json(rec: CommRecord) -> dict:
    return {
        "step": int(rec.step),
        "pattern": rec.pattern,
        "phase": rec.phase,
        "num_flows": int(rec.num_flows),
        "max_hops": int(rec.max_hops),
        "total_hops": int(rec.total_hops),
        "max_payload_bytes": int(rec.max_payload_bytes),
        "total_payload_bytes": int(rec.total_payload_bytes),
        "min_bw_factor": float(rec.min_bw_factor),
        # Derived criticals, computed through the batched engine at
        # serialization time — the regression surface of DESIGN.md §11.
        "ingress_bytes": float(rec.ingress_bottleneck_bytes),
        "max_wire_bytes": max(
            (float(f.nbytes) / f.bw_factor for f in rec.flows), default=0.0
        ),
        "flows": [_flow_json(f) for f in rec.flows],
    }


def _compute_json(rec) -> dict:
    return {
        "step": int(rec.step),
        "label": rec.label,
        "phase": rec.phase,
        "num_cores": int(rec.num_cores),
        "max_macs": float(rec.max_macs),
        "total_macs": float(rec.total_macs),
        "macs": [float(m) for m in rec.macs],
        "reads": list(rec.reads),
        "writes": list(rec.writes),
    }


def _serialize(machine: MeshMachine, result: np.ndarray, name: str) -> dict:
    trace = machine.trace
    cost = trace_cost(machine.device, trace, name=name)
    timeline = trace_timeline(trace, machine.device)
    return {
        "schema": 1,
        "workload": name,
        "grid": GRID,
        "dim": DIM,
        "seed": SEED,
        "phases": [_phase_json(rec) for rec in trace.comms],
        "computes": [_compute_json(rec) for rec in trace.computes],
        "num_barriers": len(trace.barriers),
        "peak_memory_bytes": int(trace.peak_memory_bytes),
        "core_peak_bytes": sorted(
            [int(x), int(y), int(nbytes)]
            for (x, y), nbytes in trace.core_peak_bytes.items()
        ),
        "cost": {
            "compute_cycles": float(cost.compute_cycles),
            "comm_cycles": float(cost.comm_cycles),
            "total_cycles": float(cost.total_cycles),
        },
        "timeline": [
            {
                "label": row.label,
                "kind": row.kind,
                "step": int(row.step),
                "events": int(row.events),
                "compute_cycles": float(row.compute_cycles),
                "comm_cycles": float(row.comm_cycles),
                "total_cycles": float(row.total_cycles),
            }
            for row in timeline
        ],
        "output_shape": list(result.shape),
        "output": [float(v) for v in np.asarray(result).ravel()],
    }


def _golden_payload(name: str) -> dict:
    kernel, make_machine = WORKLOADS[name]
    a, b = _operands(kernel)
    machine = make_machine()
    result = kernel.run(machine, a, b)
    return _serialize(machine, result, name)


def _load(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    return json.loads(path.read_text())


def _comm_from_json(phase: dict) -> CommRecord:
    flows = tuple(
        FlowRecord(
            src=tuple(f["src"]),
            dsts=tuple(tuple(d) for d in f["dsts"]),
            hops=f["hops"],
            nbytes=f["nbytes"],
            bw_factor=f["bw"],
            src_name=f["src_name"],
            dst_name=f["dst_name"],
        )
        for f in phase["flows"]
    )
    return CommRecord(
        step=phase["step"],
        pattern=phase["pattern"],
        num_flows=phase["num_flows"],
        max_hops=phase["max_hops"],
        total_hops=phase["total_hops"],
        max_payload_bytes=phase["max_payload_bytes"],
        total_payload_bytes=phase["total_payload_bytes"],
        phase=phase["phase"],
        flows=flows,
        min_bw_factor=phase["min_bw_factor"],
    )


# ---------------------------------------------------------------------------
# Regression: fresh runs reproduce the committed fixtures exactly
# ---------------------------------------------------------------------------
class TestGoldenTraces:
    @pytest.mark.parametrize("name", WORKLOAD_IDS)
    def test_fixture_exists_and_matches_schema(self, name):
        golden = _load(name)
        assert golden["schema"] == 1
        assert golden["workload"] == name
        assert (golden["grid"], golden["dim"], golden["seed"]) == (
            GRID, DIM, SEED
        )
        assert golden["phases"], "fixture must freeze at least one phase"

    @pytest.mark.parametrize("name", WORKLOAD_IDS)
    def test_fresh_eager_run_matches_golden(self, name):
        assert _golden_payload(name) == _load(name)

    @pytest.mark.parametrize("name", WORKLOAD_IDS)
    def test_batched_replay_reproduces_golden(self, name):
        """Capture→replay through the compiled/superfused path must leave
        behind the exact trace (and result) the fixture froze from the
        eager run."""
        kernel, make_machine = WORKLOADS[name]
        a, b = _operands(kernel)
        _, program = kernel.capture_run(make_machine(vectorize=True), a, b)
        replay_machine = make_machine(vectorize=True)
        out = kernel.replay_run(replay_machine, program, a, b)
        assert _serialize(replay_machine, out, name) == _load(name)


# ---------------------------------------------------------------------------
# Deserialized records: batched ingress recomputed from the JSON agrees
# ---------------------------------------------------------------------------
class TestDeserializedStream:
    @pytest.mark.parametrize("name", WORKLOAD_IDS)
    def test_batched_criticals_match_fixture(self, name):
        """Hop and wire-byte criticals rebuilt from the JSON flows agree
        with the values the fixture froze from the live records."""
        for p in _load(name)["phases"]:
            batch = _comm_from_json(p).flow_batch()
            assert batch.num_flows == p["num_flows"]
            assert int(batch.hops.max()) == p["max_hops"]
            assert float(batch.wire_bytes().max()) == p["max_wire_bytes"]

    @pytest.mark.parametrize("name", WORKLOAD_IDS)
    def test_record_batched_equals_eager_on_deserialized(self, name):
        """Records rebuilt from JSON take the lazy ``from_records`` path;
        batched and eager ingress must still agree flow for flow."""
        for p in _load(name)["phases"]:
            rec = _comm_from_json(p)
            assert rec.ingress_bottleneck_bytes == p["ingress_bytes"]
            assert (rec.ingress_bottleneck_bytes
                    == rec.ingress_bottleneck_bytes_eager())


# ---------------------------------------------------------------------------
# Acceptance: replayed traces pass the sanitizer and the reconciler
# ---------------------------------------------------------------------------
class TestReplayAcceptance:
    @pytest.mark.parametrize("name", WORKLOAD_IDS)
    def test_sanitizer_zero_findings(self, name):
        kernel, make_machine = WORKLOADS[name]
        a, b = _operands(kernel)
        _, program = kernel.capture_run(make_machine(vectorize=True), a, b)
        replay_machine = make_machine(vectorize=True)
        kernel.replay_run(replay_machine, program, a, b)
        report = sanitize_trace(
            replay_machine.trace,
            policy_for_machine(replay_machine),
            subject=f"golden:{name}",
        )
        assert not report.findings, [f.message for f in report.findings]

    @pytest.mark.parametrize(
        "name, plan",
        [
            ("meshgemv_clean",
             lambda: MeshGEMV.plan(GemvShape.square(DIM, 8), GRID)),
            ("meshgemm_clean",
             lambda: MeshGEMM.plan(GemmShape.square(DIM, 8), GRID)),
        ],
    )
    def test_reconciler_accepts_replayed_trace(self, name, plan):
        kernel, make_machine = WORKLOADS[name]
        a, b = _operands(kernel)
        _, program = kernel.capture_run(make_machine(vectorize=True), a, b)
        replay_machine = make_machine(vectorize=True)
        kernel.replay_run(replay_machine, program, a, b)
        report = reconcile(plan(), replay_machine.trace,
                           replay_machine.device, name=kernel.name)
        assert report.ok, report.render()


# ---------------------------------------------------------------------------
# Regeneration (manual, reviewed like code)
# ---------------------------------------------------------------------------
def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in WORKLOAD_IDS:
        path = GOLDEN_DIR / f"{name}.json"
        payload = _golden_payload(name)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(payload['phases'])} phases)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
