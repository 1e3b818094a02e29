"""Failure-injection tests: PLMR violations surfacing through real flows.

The M and R properties are enforced by the substrate, so violations must
surface as typed errors in realistic end-to-end situations — a decode
loop outgrowing a concat cache, an inference pass on starved cores, a
routing-enforced fabric refusing a SUMMA plan.
"""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.device_presets import TINY_MESH, WSE2
from repro.errors import (
    CapacityExceeded,
    ConfigurationError,
    FaultEscalationError,
    MemoryCapacityError,
    RoutingResourceError,
)
from repro.gemm import MeshGEMM, SummaGEMM
from repro.llm.checkpoint import synthesize_weights
from repro.llm.config import TINY_MHA, get_model
from repro.fleet.faults import FleetFaultEvent
from repro.llm.distributed import WaferTransformer
from repro.mesh.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.mesh.machine import MeshMachine
from repro.serving import Request, WaferServer


class TestKVOverflowDuringInference:
    def test_concat_cache_dies_mid_generation(self):
        """A concat-managed decode hits CapacityExceeded while the
        shift-managed twin keeps generating — Table 5 as a failure."""
        weights = synthesize_weights(TINY_MHA, seed=31)
        # Budget for ~6 tokens per row on a 3-row cache.
        budget = 6 * 2 * (TINY_MHA.kv_dim // 4) * 8
        concat = WaferTransformer(weights, cache_kind="concat",
                                  kv_rows=3, kv_budget_bytes=budget)
        shift = WaferTransformer(weights, cache_kind="shift",
                                 kv_rows=3, kv_budget_bytes=budget)
        prompt = np.array([1, 2, 3])
        concat.prefill(prompt)
        shift.prefill(prompt)
        concat_tokens = 0
        with pytest.raises(CapacityExceeded):
            for step in range(16):
                concat.decode_step(step % 8)
                concat_tokens += 1
        for step in range(14):  # 3 prompt + 14 decode <= 18-token capacity
            shift.decode_step(step % 8)  # must NOT raise
        assert concat_tokens < 14
        # The shift cache accepted 3x the concat capacity, as designed.
        assert shift.kv_cache(0).num_tokens > \
            concat.kv_cache(0).num_tokens

    def test_shift_cache_also_finite(self):
        weights = synthesize_weights(TINY_MHA, seed=32)
        budget = 2 * 2 * (TINY_MHA.kv_dim // 4) * 8  # 2 tokens/row
        shift = WaferTransformer(weights, cache_kind="shift",
                                 kv_rows=2, kv_budget_bytes=budget)
        shift.prefill(np.array([1]))
        with pytest.raises(CapacityExceeded):
            for step in range(10):
                shift.decode_step(step % 8)


class TestStarvedCores:
    def test_gemm_on_starved_mesh_raises_memory_error(self):
        machine = MeshMachine(TINY_MESH.submesh(2, 2))
        for core in machine.cores.values():
            core.capacity_bytes = 256  # a few dozen fp64 elements
        big = np.ones((16, 16))
        with pytest.raises(MemoryCapacityError):
            MeshGEMM.run(machine, big, big)

    def test_same_problem_fits_with_normal_cores(self):
        machine = MeshMachine(TINY_MESH.submesh(2, 2))
        big = np.ones((16, 16))
        result = MeshGEMM.run(machine, big, big)
        assert np.allclose(result, big @ big)


class TestRoutingEnforcement:
    def test_summa_rejected_on_routing_enforced_fabric(self):
        """SUMMA needs O(N) route colours; a fabric that enforces the R
        budget refuses it mid-flight while MeshGEMM sails through."""
        grid = 8  # needs 2*8 colours > the tiny device's 6
        a = np.ones((grid, grid))
        enforced = MeshMachine(TINY_MESH.submesh(grid, grid),
                               enforce_routing=True)
        with pytest.raises(RoutingResourceError):
            SummaGEMM.run(enforced, a, a)

    def test_meshgemm_fits_routing_budget(self):
        grid = 8
        a = np.ones((grid, grid))
        enforced = MeshMachine(TINY_MESH.submesh(grid, grid),
                               enforce_routing=True)
        result = MeshGEMM.run(enforced, a, a)  # 4 colours <= budget of 6
        assert np.allclose(result, a @ a)


def _fault_requests(n: int = 8) -> list:
    return [
        Request(i, seq_in=512, seq_out=64, arrival_s=i * 0.05,
                priority=i % 2)
        for i in range(n)
    ]


class TestFaultSchedule:
    def test_generate_is_seed_deterministic(self):
        kwargs = dict(transient_rate_hz=5.0, retrain_rate_hz=2.0,
                      core_dead_rate_hz=1.0)
        first = FaultSchedule.generate(2.0, seed=3, **kwargs)
        second = FaultSchedule.generate(2.0, seed=3, **kwargs)
        assert first.events == second.events
        assert FaultSchedule.generate(2.0, seed=4, **kwargs).events \
            != first.events

    def test_events_sorted_and_cursor_consumes_in_order(self):
        schedule = FaultSchedule(events=[
            FaultEvent(at_s=0.5, kind="transient"),
            FaultEvent(at_s=0.1, kind="core_dead"),
        ])
        assert [e.at_s for e in schedule.events] == [0.1, 0.5]
        assert [e.kind for e in schedule.pop_until(0.2)] == ["core_dead"]
        assert schedule.remaining == 1
        schedule.reset()
        assert schedule.remaining == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(at_s=0.0, kind="gamma_ray")


class TestDecorrelatedJitter:
    def test_jitter_off_keeps_pinned_exponential_schedule(self):
        injector = FaultInjector(0.1, base_backoff_s=1e-4,
                                 max_backoff_s=1e-2)
        assert injector.backoff_s(1) == pytest.approx(1e-4)
        assert injector.backoff_s(2) == pytest.approx(2e-4)

    def test_jitter_is_seed_deterministic_and_bounded(self):
        first = FaultInjector(0.1, seed=5, jitter=True,
                              base_backoff_s=1e-4, max_backoff_s=1e-2)
        second = FaultInjector(0.1, seed=5, jitter=True,
                               base_backoff_s=1e-4, max_backoff_s=1e-2)
        pauses = [first.backoff_s(i) for i in range(1, 10)]
        assert pauses == [second.backoff_s(i) for i in range(1, 10)]
        assert all(1e-4 <= p <= 1e-2 for p in pauses)

    def test_jitter_resets_with_failure_run(self):
        injector = FaultInjector(0.1, seed=5, jitter=True)
        run1 = [injector.backoff_s(i) for i in range(1, 4)]
        # A new failure run restarts decorrelation from the base pause.
        assert injector.backoff_s(1) <= max(run1)

    def test_jitter_draws_do_not_perturb_failure_process(self):
        plain = FaultInjector(0.3, seed=9)
        jittered = FaultInjector(0.3, seed=9, jitter=True)
        jittered.backoff_s(1)  # consume a jitter draw
        fates = [(plain.step_fails(), jittered.step_fails())
                 for _ in range(64)]
        assert all(a == b for a, b in fates)


class TestFaultTaxonomyServing:
    """Typed fault events through the serving escalation policy."""

    MODEL = get_model("llama3-8b")

    def _serve(self, schedule, spares, **kwargs):
        server = WaferServer(self.MODEL, WSE2, fault_schedule=schedule,
                             spare_regions=spares, **kwargs)
        return server.serve(_fault_requests())

    def test_link_retrain_slows_but_commits(self):
        schedule = FaultSchedule(events=[
            FaultEvent(at_s=0.01, kind="link_retrain", duration_s=0.005,
                       bw_factor=0.25, detail="retrain#0"),
        ])
        metrics = self._serve(schedule, spares=1)
        assert metrics.finished == 8
        assert metrics.retries == 0
        assert metrics.downtime_s == pytest.approx(0.005 * 3.0)
        assert metrics.availability < 1.0
        assert [e.kind for e in metrics.fault_log] == ["link_retrain"]
        assert metrics.fault_log[0].action == "slowdown"

    def test_core_death_with_spare_remaps_and_completes(self):
        schedule = FaultSchedule(events=[
            FaultEvent(at_s=0.05, kind="core_dead", detail="death#0"),
        ])
        metrics = self._serve(schedule, spares=1)
        assert metrics.finished == 8
        assert metrics.remaps == 1 and metrics.degradations == 0
        assert metrics.downtime_s > 0
        assert any(e.kind == "remap" for e in metrics.events)
        assert metrics.availability < 1.0

    def test_core_death_without_spare_degrades_and_completes(self):
        schedule = FaultSchedule(events=[
            FaultEvent(at_s=0.05, kind="core_dead", detail="death#0"),
        ])
        metrics = self._serve(schedule, spares=0)
        assert metrics.finished == 8
        assert metrics.remaps == 0 and metrics.degradations == 1
        assert any(e.kind == "degrade" for e in metrics.events)

    def test_mttr_and_availability_deterministic_for_fixed_seed(self):
        def run():
            schedule = FaultSchedule.generate(
                5.0, seed=21, transient_rate_hz=2.0,
                retrain_rate_hz=1.0, core_dead_rate_hz=0.3)
            return self._serve(schedule, spares=1)
        first, second = run(), run()
        assert first.mttr_s == second.mttr_s
        assert first.availability == second.availability
        assert first.downtime_s == second.downtime_s
        assert first.makespan_s == second.makespan_s
        assert [(e.kind, e.action) for e in first.fault_log] == \
            [(e.kind, e.action) for e in second.fault_log]

    def test_availability_accounts_all_downtime(self):
        schedule = FaultSchedule(events=[
            FaultEvent(at_s=0.01, kind="transient"),
            FaultEvent(at_s=0.05, kind="core_dead"),
        ])
        metrics = self._serve(schedule, spares=1)
        assert metrics.availability == pytest.approx(
            1.0 - metrics.downtime_s / metrics.makespan_s
        )
        assert metrics.mttr_s == pytest.approx(
            metrics.downtime_s
            / sum(1 for e in metrics.fault_log if e.downtime_s > 0)
        )

    def test_max_retries_escalates_cleanly(self):
        server = WaferServer(
            self.MODEL, WSE2,
            fault_injector=FaultInjector(0.9, seed=0),
            max_retries=3,
        )
        with pytest.raises(FaultEscalationError, match="max_retries=3"):
            server.serve(_fault_requests())


#: Runs one schedule draw in a child process.  Exit 0: the draw raised
#: ConfigurationError; exit 1: it returned.  The address-space cap turns
#: an unbounded draw into a prompt MemoryError instead of a swap storm.
_DRAW_CHILD = textwrap.dedent("""
    import resource, sys
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    from repro.errors import ConfigurationError
    from repro.fleet.faults import FleetFaultSchedule
    from repro.mesh.faults import FaultSchedule
    inf = float("inf")
    try:
        {call}
    except ConfigurationError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
""")


class TestNonFiniteFaultInputs:
    """Infinite or NaN fault inputs fail through the error contract."""

    @pytest.mark.parametrize("call", [
        "FaultSchedule.generate(1.0, transient_rate_hz=inf)",
        "FaultSchedule.generate(inf, transient_rate_hz=1.0)",
        "FaultSchedule.generate(float('nan'), transient_rate_hz=1.0)",
        "FleetFaultSchedule.generate(3, 1.0, wafer_down_rate_hz=inf)",
        "FleetFaultSchedule.generate(3, inf, partition_rate_hz=1.0)",
    ])
    def test_generate_rejects_promptly(self, call):
        # A child process under a timeout: an infinite rate or horizon
        # once drew arrivals forever, which no in-process call can bound.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", _DRAW_CHILD.format(call=call)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert "finite" in result.stdout

    @pytest.mark.parametrize("kwargs", [
        dict(at_s=math.nan),
        dict(at_s=math.inf),
        dict(at_s=0.1, duration_s=math.inf),
        dict(at_s=0.1, duration_s=math.nan),
    ])
    def test_events_reject_non_finite_windows(self, kwargs):
        with pytest.raises(ConfigurationError, match="finite"):
            FaultEvent(kind="link_retrain", **kwargs)
        with pytest.raises(ConfigurationError, match="finite"):
            FleetFaultEvent(kind="wafer_down", wafer=0, **kwargs)

    @pytest.mark.parametrize("base,cap", [
        (math.nan, math.nan),
        (1e-4, math.nan),
        (1e-4, math.inf),
        (math.inf, math.inf),
    ])
    def test_injector_rejects_non_finite_backoff(self, base, cap):
        with pytest.raises(ConfigurationError, match="finite"):
            FaultInjector(0.1, base_backoff_s=base, max_backoff_s=cap)
