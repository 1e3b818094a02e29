"""Incremental schedule pricing (repro.llm.system_base._schedule_cost).

A cold component re-plans only the schedule ops that differ from the
last schedule priced under the same label, and sums the reused and the
fresh per-phase increments in schedule order.  The contract is bit
identity with pricing every op from scratch, which these tests check
against :func:`repro.mesh.cost_model.estimate` over freshly planned
phases.
"""

from __future__ import annotations

import pytest

from repro.baselines.ladder import LadderSystem
from repro.baselines.t10 import T10System
from repro.core import WSE2
from repro.core.device_presets import get_device
from repro.fleet import FleetConfig, FleetRouter, WaferFleet, poisson_trace
from repro.llm import system_base
from repro.llm.config import get_model
from repro.llm.ops_schedule import (
    decode_layer_schedule,
    lm_head_schedule,
    prefill_layer_schedule,
)
from repro.llm.wafer_system import WaferLLMSystem
from repro.mesh.cost_model import KernelCost, estimate
from repro.serving import stepcost

LLAMA = get_model("llama3-8b")
TINY = get_model("tiny-gqa")
FABRICS = (
    (WSE2, LLAMA),
    (get_device("ipu-like-crossbar"), TINY),
)
SYSTEMS = (WaferLLMSystem, T10System, LadderSystem)

#: Interleaved so that consecutive schedules of one label differ in a
#: few ops (decode contexts), in every op (chunk lengths), or share a
#: label across kinds (a chunk's token-by-token fallback is a decode).
ORDER = (
    ("decode", 640), ("chunk", 37), ("decode", 2048), ("prefill", 300),
    ("chunk", 256), ("decode", 641), ("prefill", 301), ("chunk", 1),
    ("decode", 37),
)

#: Ops of the decode layer whose shape depends on the live context.
CONTEXT_OPS = ("scores", "softmax", "attn-v")


def _fresh(system, label, ops, grid, mode, model) -> KernelCost:
    """Every op planned afresh, priced by the reference estimator."""
    phases = []
    for op in ops:
        phases.extend(system.phases_for_op(op, grid, mode, model))
    return estimate(label, system.device, phases)


def _oracle_decode(system, model, context, grid) -> KernelCost:
    name = system.name
    layer = _fresh(system, f"{name}-decode-layer",
                   decode_layer_schedule(model, context), grid, "decode",
                   model)
    head = _fresh(system, f"{name}-decode-head", lm_head_schedule(model, 1),
                  grid, "decode", model)
    return layer.scaled(model.num_layers) + head


def _oracle_prefill(system, model, seq_len, grid) -> KernelCost:
    name = system.name
    layer = _fresh(system, f"{name}-prefill-layer",
                   prefill_layer_schedule(model, seq_len), grid, "prefill",
                   model)
    head = _fresh(system, f"{name}-prefill-head",
                  lm_head_schedule(model, seq_len), grid, "prefill", model)
    return layer.scaled(model.num_layers) + head


def _oracle_chunk(system, model, chunk_len, grid) -> KernelCost:
    chunked = _fresh(system, f"{system.name}-prefill-chunk",
                     prefill_layer_schedule(model, chunk_len), grid,
                     "decode", model).scaled(model.num_layers)
    fallback = _oracle_decode(system, model, chunk_len, grid).scaled(
        chunk_len)
    if fallback.total_cycles < chunked.total_cycles:
        return KernelCost(
            name=chunked.name, device=chunked.device,
            compute_cycles=fallback.compute_cycles,
            comm_cycles=fallback.comm_cycles,
            total_cycles=fallback.total_cycles,
        )
    return chunked


def _price(system, model, kind, arg):
    if kind == "prefill":
        grid = system.prefill_grid(model)
        return (system.prefill_cost(model, arg),
                _oracle_prefill(system, model, arg, grid))
    grid = system.decode_grid(model)
    if kind == "decode":
        return (system.decode_token_cost(model, arg),
                _oracle_decode(system, model, arg, grid))
    return (system.chunked_prefill_cost(model, arg),
            _oracle_chunk(system, model, arg, grid))


def _ops_delta(before):
    after = stepcost.cache_info()
    return (after["ops_priced"] - before["ops_priced"],
            after["ops_reused"] - before["ops_reused"])


class TestExactOracle:
    @pytest.mark.parametrize("system_cls", SYSTEMS,
                             ids=lambda c: c.__name__)
    @pytest.mark.parametrize("fabric", FABRICS, ids=lambda f: f[0].name)
    def test_interleaved_prices_equal_fresh_estimate(self, system_cls,
                                                     fabric):
        device, model = fabric
        system = system_cls(device)
        stepcost.invalidate()
        for kind, arg in ORDER:
            priced, oracle = _price(system, model, kind, arg)
            assert priced == oracle, (kind, arg)
        # The interleaving exercised reuse, not just fresh planning.
        assert stepcost.cache_info()["ops_reused"] > 0

    @pytest.mark.parametrize("system_cls", SYSTEMS,
                             ids=lambda c: c.__name__)
    def test_nothing_is_reused_after_invalidate(self, system_cls):
        system = system_cls(WSE2)
        stepcost.invalidate()
        before = stepcost.cache_info()
        system.decode_token_cost(LLAMA, 640)
        priced, reused = _ops_delta(before)
        assert reused == 0
        assert priced == len(decode_layer_schedule(LLAMA, 640)) + len(
            lm_head_schedule(LLAMA, 1))
        # The next context reuses every context-independent op...
        before = stepcost.cache_info()
        system.decode_token_cost(LLAMA, 641)
        assert _ops_delta(before) == (
            len(CONTEXT_OPS), priced - len(CONTEXT_OPS))
        # ...but not across an invalidation: the last schedule is
        # orphaned with the component memo.
        stepcost.invalidate()
        before = stepcost.cache_info()
        system.decode_token_cost(LLAMA, 642)
        assert _ops_delta(before) == (priced, 0)

    def test_context_dependent_ops_are_the_three_attention_ops(self):
        short = decode_layer_schedule(LLAMA, 640)
        long = decode_layer_schedule(LLAMA, 2048)
        changed = tuple(a.name for a, b in zip(short, long) if a != b)
        assert changed == CONTEXT_OPS


class TestFleetReuse:
    def test_at_load_fleet_replans_only_context_ops(self):
        # A fleet_at_load-shaped run: four llama3-8b wafers on WSE-2,
        # Poisson arrivals, 256-token chunks.  After the first decode
        # layer, each decode component re-plans only the three
        # context-dependent ops and reuses the rest and the LM head;
        # chunk schedules change in every op.
        stepcost.invalidate()
        before = stepcost.cache_info()
        fleet = WaferFleet(LLAMA, WSE2, FleetConfig(
            n_wafers=4, chunk_tokens=256, default_context_len=2048, seed=0))
        trace = poisson_trace(
            64, seed=0, mean_interarrival_s=0.02,
            seq_in_range=(256, 2048), seq_out_range=(32, 256),
            ttft_slo_s=5.0, tpot_slo_s=0.5, n_sessions=64,
        )
        metrics = FleetRouter(fleet).run(trace)
        assert metrics.finished == len(trace)
        kinds = [key[4] for key in system_base._COMPONENT_COST_CACHE]
        decodes, chunks = kinds.count("decode"), kinds.count("chunk")
        assert decodes > 1 and chunks > 1
        assert kinds.count("prefill") == 0
        layer_ops = len(decode_layer_schedule(LLAMA, 1))
        head_ops = len(lm_head_schedule(LLAMA, 1))
        chunk_ops = len(prefill_layer_schedule(LLAMA, 1))
        priced, reused = _ops_delta(before)
        assert priced == (
            layer_ops + head_ops
            + len(CONTEXT_OPS) * (decodes - 1)
            + chunk_ops * chunks
        )
        assert reused == (
            (layer_ops - len(CONTEXT_OPS) + head_ops) * (decodes - 1)
        )
