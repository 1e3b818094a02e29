"""The placement planner subsystem: plan IR, search, validation, shims.

Property tests drive random defect maps through the planner and assert
the DESIGN.md §12 invariants: no emitted region ever covers a dead
core, every emitted plan replays clean (zero findings), rejections
carry the findings that killed them, and the search is a pure function
of its seed.
"""

import json

import pytest

from repro.core.device_presets import PRESETS, WSE2
from repro.errors import ConfigurationError, PlacementError
from repro.llm.config import get_model
from repro.llm.kvcache import region_token_capacity
from repro.llm.wafer_system import WaferLLMSystem
from repro.mesh.remap import DefectMap
from repro.placement import (
    FabricView,
    PlacementPlanner,
    PlannerConfig,
    RegionCarveOut,
    ValidationBudgets,
    coarse_then_refine,
    decode_carve_for_grid,
    min_decode_grid,
    paper_default_plan,
    plan_placement,
    stretched_seconds,
    validate_plan,
)

IPU = PRESETS["ipu-like-crossbar"]
TINY = get_model("tiny-gqa")

#: Fast planner knobs for the 48x31 fabric (same scale as ``place --smoke``).
FAST = dict(coarse_step=8, seq_len=256, context_len=64)


def tiny_defects(seed: int, **overrides) -> DefectMap:
    kwargs = dict(dead_core_rate=0.01, dead_link_rate=0.01,
                  degraded_link_rate=0.02, degraded_factor=0.5)
    kwargs.update(overrides)
    return DefectMap.generate(IPU.mesh_width, IPU.mesh_height, seed=seed,
                              **kwargs)


# ----------------------------------------------------------------------
# Region carve-outs (the IR's geometry primitive)
# ----------------------------------------------------------------------

class TestRegionCarveOut:
    def test_geometry(self):
        r = RegionCarveOut("r", 2, 3, 4, 5, role="decode")
        assert r.num_cores == 20
        assert r.grid == 4
        assert r.contains((2, 3)) and r.contains((5, 7))
        assert not r.contains((6, 3)) and not r.contains((2, 8))
        assert len(list(r.coords())) == 20
        assert r.fits(6, 8) and not r.fits(5, 8)

    def test_overlap_is_symmetric(self):
        a = RegionCarveOut("a", 0, 0, 4, 4)
        b = RegionCarveOut("b", 3, 3, 4, 4, role="spare")
        c = RegionCarveOut("c", 4, 0, 4, 4, role="spare")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c) and not c.overlaps(a)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RegionCarveOut("bad", 0, 0, 0, 4)
        with pytest.raises(ConfigurationError):
            RegionCarveOut("bad", -1, 0, 4, 4)
        with pytest.raises(ConfigurationError):
            RegionCarveOut("bad", 0, 0, 4, 4, role="magic")

    def test_decode_carve_for_grid(self):
        r = decode_carve_for_grid(6)
        assert (r.x, r.y, r.width, r.height) == (0, 0, 6, 6)
        assert r.role == "decode"
        with pytest.raises(ConfigurationError):
            decode_carve_for_grid(0)


# ----------------------------------------------------------------------
# min_decode_grid: the loop-invariant bug is fixed (satellite 1)
# ----------------------------------------------------------------------

class TestMinDecodeGrid:
    def test_capacity_binds_per_grid(self):
        """The KV-capacity check now varies with the candidate grid.

        Pre-fix, the budget was computed from ``device.num_cores`` —
        loop-invariant — and compared against a floor it was clamped
        to, so only the stage bound ever rejected a grid.  llama2-13b
        is the regression witness: its floor is set by context
        capacity, not stages.
        """
        model = get_model("llama2-13b")
        floor = min_decode_grid(model, WSE2)
        assert floor == 208
        # One coarse step below the floor, capacity (not stages) fails.
        below = floor - 4
        tokens = region_token_capacity(
            model, below, WSE2.core_memory_bytes, WSE2.num_cores
        )
        assert tokens < 2048
        assert region_token_capacity(
            model, floor, WSE2.core_memory_bytes, WSE2.num_cores
        ) >= 2048

    def test_monotone_in_context(self):
        model = get_model("llama2-13b")
        assert min_decode_grid(model, WSE2, 8192) > min_decode_grid(
            model, WSE2, 2048
        )

    def test_paper_grids_respect_floors(self):
        system = WaferLLMSystem(WSE2)
        for name in ("llama3-8b", "llama2-13b"):
            model = get_model(name)
            assert system.decode_grid(model) >= min_decode_grid(model, WSE2)


# ----------------------------------------------------------------------
# Sweep driver
# ----------------------------------------------------------------------

class TestCoarseThenRefine:
    def test_finds_interior_peak(self):
        # coarse_step 10 -> fine_step 1, so refinement lands exactly.
        sweep = coarse_then_refine(lambda g: -(g - 137) ** 2, 8, 300, 10)
        assert sweep.best == 137
        assert sweep.evaluated[137] == 0

    def test_coarse_winner_within_one_step(self):
        # With fine_step 6 the peak at 137 is bracketed, not hit: the
        # legacy semantics land within one fine step of the optimum.
        sweep = coarse_then_refine(lambda g: -(g - 137) ** 2, 8, 300, 60)
        assert abs(sweep.best - 137) <= 6

    def test_ranked_is_best_first(self):
        sweep = coarse_then_refine(lambda g: -(g - 137) ** 2, 8, 300, 60)
        ranked = sweep.ranked()
        assert ranked[0] == sweep.best
        values = [sweep.evaluated[g] for g in ranked]
        assert values == sorted(values, reverse=True)

    def test_endpoint_always_measured(self):
        sweep = coarse_then_refine(lambda g: float(g), 8, 97, 60)
        assert 97 in sweep.evaluated
        assert sweep.best == 97


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------

class TestStretchedSeconds:
    def test_identity_at_unit_stretch(self):
        system = WaferLLMSystem(WSE2)
        model = get_model("llama3-8b")
        cost = system.decode_token_cost(model, grid=360, context_len=2048)
        assert stretched_seconds(cost, 1.0) == cost.seconds

    def test_stretch_only_inflates_comm(self):
        system = WaferLLMSystem(WSE2)
        model = get_model("llama3-8b")
        cost = system.decode_token_cost(model, grid=360, context_len=2048)
        assert stretched_seconds(cost, 1.5) > cost.seconds


# ----------------------------------------------------------------------
# Planner properties on random defect maps (satellite 3)
# ----------------------------------------------------------------------

class TestPlannerProperties:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_no_region_over_dead_core(self, seed):
        defects = tiny_defects(seed)
        result = plan_placement(TINY, IPU, defects,
                                PlannerConfig(seed=seed, **FAST))
        view = FabricView(IPU, defects)
        for region in result.plan.regions():
            for coord in region.coords():
                phys = view.to_physical(coord)
                assert defects.core_ok(phys), (
                    f"{region.name} covers dead core {phys} (seed {seed})"
                )

    @pytest.mark.parametrize("seed", [1, 7])
    def test_search_is_deterministic(self, seed):
        defects_a = tiny_defects(11)
        defects_b = tiny_defects(11)
        a = plan_placement(TINY, IPU, defects_a,
                           PlannerConfig(seed=seed, **FAST))
        b = plan_placement(TINY, IPU, defects_b,
                           PlannerConfig(seed=seed, **FAST))
        assert a.plan.to_dict() == b.plan.to_dict()

    def test_emitted_plan_is_validated_clean(self):
        result = plan_placement(TINY, IPU, tiny_defects(9),
                                PlannerConfig(seed=0, **FAST))
        plan = result.plan
        assert plan.is_validated
        assert plan.validation.findings == []
        assert plan.validation.reconcile_ok
        assert plan.validation.sanitize_ok
        assert plan.validation.budgets_ok

    def test_planner_at_least_paper_on_degraded_fabric(self):
        defects = tiny_defects(5)
        cfg = PlannerConfig(seed=0, **FAST)
        plan = plan_placement(TINY, IPU, defects, cfg).plan
        paper = paper_default_plan(TINY, IPU, defects, cfg)
        assert plan.decode_tokens_per_s >= paper.decode_tokens_per_s

    def test_spares_disjoint_from_live_regions(self):
        plan = plan_placement(TINY, IPU, tiny_defects(3),
                              PlannerConfig(seed=0, spare_count=2,
                                            **FAST)).plan
        for spare in plan.spare_regions:
            assert not spare.overlaps(plan.decode_region)
        for i, a in enumerate(plan.spare_regions):
            for b in plan.spare_regions[i + 1:]:
                assert not a.overlaps(b)

    def test_too_small_fabric_rejected(self):
        with pytest.raises(ConfigurationError):
            PlacementPlanner(TINY, WSE2.submesh(6, 6))


# ----------------------------------------------------------------------
# Rejection: findings travel with the killed candidate (satellite 3)
# ----------------------------------------------------------------------

class TestRejection:
    def test_budget_breach_is_a_finding(self):
        planner = PlacementPlanner(TINY, IPU, tiny_defects(9),
                                   PlannerConfig(seed=0, **FAST))
        plan = planner._assemble(16, 8, 2, evals=0)
        validation = validate_plan(
            plan, planner.view, TINY,
            ValidationBudgets(min_kv_tokens=10 ** 9, probe_side=4),
        )
        assert not validation.ok
        assert any(f.rule == "memory-budget" for f in validation.findings)

    def test_search_rejections_carry_findings(self, monkeypatch):
        """A killed candidate's RejectedPlan records *why* it died."""
        import repro.placement.search as search_mod

        real_validate = search_mod.validate_plan
        calls = {"n": 0}

        def flaky_validate(plan, view, model, budgets):
            calls["n"] += 1
            if calls["n"] == 1:
                return real_validate(
                    plan, view, model,
                    ValidationBudgets(min_kv_tokens=10 ** 9,
                                      probe_side=budgets.probe_side),
                )
            return real_validate(plan, view, model, budgets)

        monkeypatch.setattr(search_mod, "validate_plan", flaky_validate)
        result = plan_placement(TINY, IPU, tiny_defects(9),
                                PlannerConfig(seed=0, **FAST))
        assert result.plan.is_validated
        assert len(result.rejected) == 1
        rejection = result.rejected[0]
        assert rejection.findings, "rejection must carry its findings"
        assert any(f.rule == "memory-budget" for f in rejection.findings)
        assert "failed validation" in rejection.reason

    def test_all_candidates_dead_raises_placement_error(self):
        cfg = PlannerConfig(seed=0, context_len=10 ** 9, coarse_step=8,
                            seq_len=256, max_validation_attempts=2)
        with pytest.raises(PlacementError) as err:
            plan_placement(TINY, IPU, tiny_defects(9), cfg)
        assert "memory-budget" in str(err.value)


# ----------------------------------------------------------------------
# Plan threading: system, transformer, serving
# ----------------------------------------------------------------------

class TestPlanThreading:
    @pytest.fixture(scope="class")
    def plan(self):
        return plan_placement(TINY, IPU, tiny_defects(5),
                              PlannerConfig(seed=0, **FAST)).plan

    def test_system_answers_from_plan(self, plan):
        system = WaferLLMSystem(IPU, plan=plan)
        assert system.prefill_grid(TINY) == min(plan.prefill_grid,
                                                min(IPU.mesh_width,
                                                    IPU.mesh_height))
        assert system.decode_grid(TINY) == plan.decode_grid
        # Other models still fall back to the paper tables.
        other = get_model("tiny-mha")
        assert system.decode_grid(other) != plan.decode_grid or \
            not plan.matches(other.name)

    def test_transformer_uses_probe_grid(self, plan):
        from repro.llm.checkpoint import synthesize_weights
        from repro.llm.distributed import WaferTransformer

        weights = synthesize_weights(TINY, seed=42)
        wt = WaferTransformer(weights, plan=plan)
        assert wt.ops.grid == plan.functional_grid

    def test_server_takes_region_and_spares_from_plan(self, plan):
        from repro.serving import WaferServer

        server = WaferServer(TINY, IPU, plan=plan)
        assert server.region is plan.decode_region
        assert [r.name for r in server._spare_pool] == [
            r.name for r in plan.spare_regions
        ]

    def test_server_rejects_mismatched_plan(self, plan):
        from repro.serving import WaferServer

        with pytest.raises(ConfigurationError):
            WaferServer(get_model("tiny-mha"), IPU, plan=plan)

    def test_plan_matches_quantized_variants(self, plan):
        assert plan.matches("tiny-gqa")
        assert plan.matches("tiny-gqa[int8]")
        assert not plan.matches("tiny-mha")


# ----------------------------------------------------------------------
# CLI (satellite 5's CI gate, exercised in-process)
# ----------------------------------------------------------------------

class TestPlaceCLI:
    def test_smoke_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["place", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "valid" in out

    def test_smoke_json_payload(self, capsys):
        from repro.cli import main

        assert main(["place", "--smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["validation"]["ok"] is True
        assert payload["plan"]["decode_tokens_per_s"] > \
            payload["paper"]["decode_tokens_per_s"]


# ----------------------------------------------------------------------
# Lint rule (satellite 5)
# ----------------------------------------------------------------------

class TestCarveOutLintRule:
    CODE = (
        "from repro.placement.plan import RegionCarveOut\n"
        "r = RegionCarveOut('r', 0, 0, 4, 4)\n"
    )

    def _rules(self, rel_path):
        from repro.analysis.lint import lint_source

        return {f.rule for f in lint_source(self.CODE, rel_path)}

    def test_flags_outside_planner(self):
        assert "region-carveout-outside-planner" in self._rules(
            "src/repro/serving/fake.py"
        )

    def test_silent_inside_planner(self):
        assert "region-carveout-outside-planner" not in self._rules(
            "src/repro/placement/fake.py"
        )

    def test_silent_outside_src(self):
        assert "region-carveout-outside-planner" not in self._rules(
            "tools/fake.py"
        )

    def test_no_carveout_allowances_remain(self):
        """The whole tree lints clean with no inline allowance for the
        rule anywhere under ``src/`` and an empty baseline."""
        from repro.analysis.lint import SOURCE_ROOT, lint_repo
        from repro.analysis.lint.baseline import load_baseline
        from repro.analysis.lint.engine import REPO_ROOT

        findings = [f for f in lint_repo((SOURCE_ROOT,))
                    if f.rule == "region-carveout-outside-planner"]
        assert findings == []
        assert load_baseline() == set()
        allowances = [
            path for path in sorted((REPO_ROOT / "src").rglob("*.py"))
            if "plmr: allow=region-carveout-outside-planner"
            in path.read_text(encoding="utf-8")
        ]
        assert allowances == []
