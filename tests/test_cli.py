"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import main


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "invalid choice" in err and "Traceback" not in err
    return err


class TestTopLevel:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "cerebras-wse2" in out
        assert "dojo-like" in out

    def test_compliance_default_device(self, capsys):
        assert main(["compliance"]) == 0
        out = capsys.readouterr().out
        assert "meshgemm" in out and "VIOLATED" in out

    def test_compliance_unknown_device(self, capsys):
        assert main(["compliance", "--device", "nope"]) == 2


class TestTablesAndFigures:
    @pytest.mark.parametrize("number", [5, 6, 7, 8])
    def test_tables(self, number, capsys):
        assert main(["table", str(number)]) == 0
        out = capsys.readouterr().out
        assert "measured/paper" in out

    def test_unknown_table(self, capsys):
        assert main(["table", "42"]) == 2

    def test_figure10(self, capsys):
        assert main(["figure", "10"]) == 0
        out = capsys.readouterr().out
        assert "meshgemv" in out and "pipeline-gemv" in out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "1"]) == 2


class TestKernelCommands:
    def test_gemm(self, capsys):
        assert main(["gemm", "--dim", "4096", "--grid", "480"]) == 0
        assert "meshgemm" in capsys.readouterr().out

    def test_gemm_unknown_kernel(self, capsys):
        assert main(["gemm", "--kernel", "magic"]) == 2

    def test_gemv_all_kernels(self, capsys):
        for kernel in ("meshgemv", "pipeline-gemv", "ring-gemv"):
            assert main(["gemv", "--dim", "4096", "--kernel", kernel,
                         "--grid", "240"]) == 0

    def test_gemv_unknown_kernel(self, capsys):
        assert main(["gemv", "--kernel", "magic"]) == 2

    @pytest.mark.parametrize("argv", [
        ["gemm", "--grid", "0"],
        ["gemv", "--grid", "0"],
        ["gemv", "--grid", "-3"],
        ["project", "--region", "0"],
        ["serve", "--priorities", "0"],
        ["serve", "--priorities", "-1"],
        ["profile", "--dim", "0"],
        ["profile", "--grid", "0"],
        ["place", "--spares", "-1"],
    ], ids=" ".join)
    def test_non_positive_size_rejected(self, argv, capsys):
        # Zero must not fall back to the default size, and a negative
        # grid must not price a fabric that cannot exist.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_place_rejects_bad_degraded_factor(self, capsys):
        # The rate is too small for any link to draw degraded.
        argv = ["place", "--degraded-links", "1e-9", "--degraded-factor", "7"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("factor", ["0", "1", "7", "nan", "inf"])
    def test_place_rejects_bad_degraded_factor_without_defects(
        self, factor, capsys
    ):
        # Every defect rate is 0, so no map is drawn; the factor is still
        # checked rather than silently ignored.
        assert main(["place", "--degraded-factor", factor]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "degraded_factor" in captured.err

    @pytest.mark.parametrize("argv", [
        ["--dead-cores", "-0.1"],
        ["--dead-cores", "nan"],
        ["--dead-links", "1"],
        ["--degraded-links", "1.5"],
    ], ids=" ".join)
    def test_place_rejects_bad_defect_rate(self, argv, capsys):
        assert main(["place", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: defect rates")


class TestLLMCommands:
    def test_llm_estimate(self, capsys):
        assert main(["llm", "--model", "llama3-8b",
                     "--seq-in", "2048", "--seq-out", "128"]) == 0
        out = capsys.readouterr().out
        assert "prefill" in out and "tok/s" in out

    def test_llm_unknown_model(self, capsys):
        assert main(["llm", "--model", "gpt-7"]) == 2

    def test_autotune(self, capsys):
        # Retired: `repro place --compare-paper` is the one command.
        _usage_error(capsys, ["autotune"])

    def test_bench(self, capsys):
        # Retired: perfbench/run.py is the one wall-clock harness.
        _usage_error(capsys, ["bench"])

    def test_serve_legacy_mode_rejected(self, capsys):
        err = _usage_error(capsys, ["serve", "--mode", "legacy"])
        assert "'chunked', 'exclusive')" in err

    def test_serve(self, capsys):
        assert main(["serve", "--model", "llama3-8b", "--requests", "3",
                     "--batch", "2", "--seq-in", "128",
                     "--seq-out", "16"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "p99" in out


class TestAuditAndProject:
    def test_audit(self, capsys):
        assert main(["audit"]) == 0
        out = capsys.readouterr().out
        assert "llama3-8b" in out and "qwen2-72b" in out
        assert "no (" in out  # the big models don't fit

    def test_audit_int8(self, capsys):
        assert main(["audit", "--int8"]) == 0
        out = capsys.readouterr().out
        assert "codellama-34b-int8" in out

    def test_project(self, capsys):
        assert main(["project", "--model", "llama2-13b"]) == 0
        out = capsys.readouterr().out
        assert "resident projection" in out and "wider" in out


class TestProfile:
    def test_meshgemm_timeline(self, capsys):
        assert main(["profile", "--kernel", "meshgemm", "--grid", "8"]) == 0
        out = capsys.readouterr().out
        assert "meshgemm-compute-shift" in out
        assert "trace replay" in out and "TOTAL" in out

    def test_meshgemv_timeline(self, capsys):
        assert main(["profile", "--kernel", "meshgemv", "--grid", "8"]) == 0
        out = capsys.readouterr().out
        assert "gemv-partial" in out and "meshgemv-ktree-L1" in out

    def test_reconcile_flag(self, capsys):
        assert main(["profile", "--kernel", "summa", "--grid", "4",
                     "--reconcile"]) == 0
        out = capsys.readouterr().out
        assert "reconcile" in out and "ok" in out

    def test_nonsquare_height(self, capsys):
        assert main(["profile", "--kernel", "meshgemm-nonsquare",
                     "--grid", "2", "--height", "3"]) == 0
        out = capsys.readouterr().out
        assert "2x3" in out and "nsq-compute-shift" in out

    def test_unknown_kernel(self, capsys):
        assert main(["profile", "--kernel", "nope"]) == 2

    def test_unknown_preset(self, capsys):
        assert main(["profile", "--kernel", "meshgemm", "--grid", "4",
                     "--device", "nope"]) == 2


class TestFaults:
    def test_smoke_sweep_prints_availability_table(self, capsys):
        assert main(["faults", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "fault sweep" in out and "availability" in out
        assert "baseline" in out and "link retrains" in out
        assert "core death + spare" in out
        assert "core deaths, no spares" in out
        # Baseline row must report perfect availability.
        baseline = next(l for l in out.splitlines()
                        if l.startswith("baseline"))
        assert "1.0000" in baseline

    def test_smoke_sweep_is_deterministic(self, capsys):
        assert main(["faults", "--smoke"]) == 0
        first = capsys.readouterr().out
        assert main(["faults", "--smoke"]) == 0
        assert capsys.readouterr().out == first

    def test_unknown_model_exits_2(self, capsys):
        assert main(["faults", "--smoke", "--model", "gpt-7"]) == 2

    def test_serve_escalation_flags(self, capsys):
        assert main(["serve", "--model", "llama3-8b", "--requests", "3",
                     "--batch", "2", "--seq-in", "128", "--seq-out", "16",
                     "--max-retries", "4", "--spares", "2"]) == 0
        assert "throughput" in capsys.readouterr().out


class TestFleet:
    def test_one_wafer_fleet_sweep_exits_2_before_running(
        self, capsys, monkeypatch
    ):
        from repro.fleet import chaos

        runs = []
        run_chaos = chaos.run_chaos
        monkeypatch.setattr(
            chaos, "run_chaos",
            lambda *args, **kwargs: runs.append(1) or run_chaos(
                *args, **kwargs),
        )
        assert main(["fleet", "--wafers", "1", "--model", "tiny-gqa",
                     "--device", "ipu-like-crossbar",
                     "--requests", "4"]) == 2
        assert "needs at least 2 wafers" in capsys.readouterr().err
        assert runs == []


class TestNonFiniteServingInputs:
    """NaN/inf serving inputs fail through the error contract, promptly.

    Each case runs in its own process under a timeout: a NaN arrival
    once hung the serving loop (the idle clock jump ``max(now, nan)``
    never advances), which an in-process call could not bound.
    """

    @pytest.mark.parametrize("argv", [
        ["serve", "--interval", "nan", "--requests", "4"],
        ["serve", "--tpot-slo", "nan", "--requests", "2"],
        ["serve", "--ttft-slo", "inf", "--requests", "2"],
        ["fleet", "--interval", "nan"],
        ["faults", "--interval", "nan", "--requests", "2"],
    ], ids=" ".join)
    def test_exits_2_with_error_line(self, argv):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 2, result.stderr[-2000:]
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr
