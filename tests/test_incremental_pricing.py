"""Array-valued schedule pricing (repro.llm.system_base).

A schedule built for an int array of lengths is priced in one pass of
elementwise arithmetic, and a chunked-prefill miss at ``L`` prices every
not-yet-memoized chunk length ``1..L`` with its decode fallback in one
such pass.  The contract is bit identity with pricing each shape from
scratch, which these tests check against
:func:`repro.mesh.cost_model.estimate` over freshly planned scalar
phases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    def test_context_dependent_ops_are_the_three_attention_ops(self):
        short = decode_layer_schedule(LLAMA, 640)
        long = decode_layer_schedule(LLAMA, 2048)
        changed = tuple(a.name for a, b in zip(short, long) if a != b)
        assert changed == CONTEXT_OPS


def _entries(system, model, kind):
    """Memoized shape arguments of one component kind for ``system``."""
    return {
        key[5] for key in system_base._COMPONENT_COST_CACHE
        if key[1] is type(system) and key[3] == model and key[4] == kind
    }


class TestChunkAxis:
    @pytest.mark.parametrize("system_cls", SYSTEMS,
                             ids=lambda c: c.__name__)
    def test_one_miss_fills_the_prefix(self, system_cls):
        system = system_cls(WSE2)
        stepcost.invalidate()
        before = stepcost.cache_info()["component_misses"]
        system.chunked_prefill_cost(LLAMA, 40)
        # One miss at 40 prices chunk lengths 1..40 and their decode
        # fallbacks, each entry exactly once.
        assert _entries(system, LLAMA, "chunk") == set(range(1, 41))
        assert _entries(system, LLAMA, "decode") == set(range(1, 41))
        assert stepcost.cache_info()["component_misses"] - before == 80
        # A longer chunk fills only the lengths past the prefix.
        before = stepcost.cache_info()["component_misses"]
        system.chunked_prefill_cost(LLAMA, 64)
        assert _entries(system, LLAMA, "chunk") == set(range(1, 65))
        assert _entries(system, LLAMA, "decode") == set(range(1, 65))
        assert stepcost.cache_info()["component_misses"] - before == 48
        # Every length of the prefix is now a hit.
        before = stepcost.cache_info()["component_misses"]
        for length in range(1, 65):
            system.chunked_prefill_cost(LLAMA, length)
        assert stepcost.cache_info()["component_misses"] == before

    @pytest.mark.parametrize("system_cls", SYSTEMS,
                             ids=lambda c: c.__name__)
    @pytest.mark.parametrize("fabric", FABRICS, ids=lambda f: f[0].name)
    def test_axis_entries_equal_fresh_estimate(self, system_cls, fabric):
        device, model = fabric
        system = system_cls(device)
        grid = system.decode_grid(model)
        stepcost.invalidate()
        # A decode entry memoized before the pass keeps its object.
        known = system.decode_token_cost(model, 24)
        system.chunked_prefill_cost(model, 48)
        assert system.decode_token_cost(model, 24) is known
        for length in range(1, 49):
            chunk = system.chunked_prefill_cost(model, length)
            decode = system.decode_token_cost(model, length)
            assert chunk == _oracle_chunk(system, model, length, grid)
            assert decode == _oracle_decode(system, model, length, grid)
            for cost in (chunk, decode):
                assert all(type(x) is float for x in (
                    cost.compute_cycles, cost.comm_cycles,
                    cost.total_cycles))

    def test_fleet_set_up_prices_the_chunk_axis(self):
        # Building a fleet_at_load-shaped fleet prices every chunk its
        # servers can meet (each server's first chunk is its configured
        # 256 tokens), so the run itself adds no chunk entry.
        stepcost.invalidate()
        before = stepcost.cache_info()["component_misses"]
        fleet = WaferFleet(LLAMA, WSE2, FleetConfig(
            n_wafers=4, chunk_tokens=256, default_context_len=2048, seed=0))
        system = fleet.engine(0).server.system
        assert _entries(system, LLAMA, "chunk") == set(range(1, 257))
        assert stepcost.cache_info()["component_misses"] - before == 2 * 256
        trace = poisson_trace(
            64, seed=0, mean_interarrival_s=0.02,
            seq_in_range=(256, 2048), seq_out_range=(32, 256),
            ttft_slo_s=5.0, tpot_slo_s=0.5, n_sessions=64,
        )
        metrics = FleetRouter(fleet).run(trace)
        assert metrics.finished == len(trace)
        assert _entries(system, LLAMA, "chunk") == set(range(1, 257))
        assert _entries(system, LLAMA, "prefill") == set()
        decodes = _entries(system, LLAMA, "decode")
        assert stepcost.cache_info()["component_misses"] - before == (
            256 + len(decodes))


#: Axis arguments: unsorted, with duplicates, and weighted toward the
#: lengths 1..4 where a sub-grid clamps to 1, 2 or 3 cores, so one axis
#: mixes elements with and without the alignment and placement phases
#: and with different K-tree level counts.
AXIS_ARGS = st.lists(
    st.one_of(st.integers(1, 4), st.integers(1, 300)),
    min_size=2, max_size=8,
)


#: (label, schedule builder, mode) of each schedule an axis pass prices.
SCHEDULES = (
    ("prefill-layer", prefill_layer_schedule, "prefill"),
    ("prefill-chunk", prefill_layer_schedule, "decode"),
    ("decode-layer", decode_layer_schedule, "decode"),
)


def _fields(cost, i=None):
    fields = (cost.compute_cycles, cost.comm_cycles, cost.total_cycles)
    if i is not None:
        fields = tuple(float(x[i]) for x in fields)
    return tuple(x.hex() for x in fields)


class TestAxisProperty:
    @pytest.mark.parametrize("system_cls", SYSTEMS,
                             ids=lambda c: c.__name__)
    @pytest.mark.parametrize("fabric", FABRICS, ids=lambda f: f[0].name)
    @settings(max_examples=20, deadline=None)
    @given(args=AXIS_ARGS, pick=st.integers(0, 3))
    def test_axis_elements_equal_scalar_and_fresh_prices(
            self, system_cls, fabric, args, pick):
        device, model = fabric
        system = system_cls(device)
        grid = (1, 2, 3, min(device.mesh_width, device.mesh_height))[pick]
        for label, build, mode in SCHEDULES:
            axis = system._schedule_cost(
                label, build(model, np.array(args)), grid, mode, model)
            for i, arg in enumerate(args):
                one = system._schedule_cost(
                    label, build(model, np.array([arg])), grid, mode, model)
                ops = build(model, arg)
                scalar = system._schedule_cost(label, ops, grid, mode, model)
                fresh = _fresh(system, label, ops, grid, mode, model)
                assert _fields(axis, i) == _fields(one, 0) == _fields(
                    scalar) == _fields(fresh), (label, arg, grid)
