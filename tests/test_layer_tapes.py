"""One bound tape per decode layer.

A compiled :class:`WaferTransformer` runs each decode layer as one
replay of a tape keyed by (layer, padded KV length), captured the first
time a token reaches the key.  The replay must be bit-identical to the
eager oracle, list the same launches with their programs' sealed
records, keep the tape table bounded, and drop a tape whose replay
fails.
"""

import math

import numpy as np
import pytest

from repro.llm.checkpoint import synthesize_weights
from repro.llm.config import TINY_GQA, TINY_MHA, TINY_MQA
from repro.llm.distributed import WaferTransformer
from repro.llm.mesh_ops import MeshOpContext

#: A 5-token prompt decoded 9 steps: KV lengths 6..14 cross the padded
#: lengths 8, 12 and 16 on the 4-grid.
PROMPT_TOKENS = 5
STEPS = 9


def _pair(config, cache_kind="shift", seed=3):
    weights = synthesize_weights(config, seed=seed)
    compiled = WaferTransformer(weights, cache_kind=cache_kind)
    eager = WaferTransformer(
        weights, ops=MeshOpContext(compiled=False), cache_kind=cache_kind
    )
    return compiled, eager


def _generate(model, prompt, steps):
    model.reset()
    logits = [model.prefill(prompt)]
    token = int(np.argmax(logits[-1][-1]))
    for _ in range(steps):
        logits.append(model.decode_step(token))
        token = int(np.argmax(logits[-1]))
    return logits


def _prompts(config, count=2):
    rng = np.random.default_rng(5)
    return [rng.integers(0, config.vocab_size, PROMPT_TOKENS)
            for _ in range(count)]


def _records(ops):
    """Every resident program's ``(label, sealed record)`` pair."""
    return {id(entry["launch"][1]): entry["launch"]
            for entry in ops._resident.values()}


@pytest.mark.parametrize("cache_kind", ["shift", "concat"])
@pytest.mark.parametrize("config", [TINY_GQA, TINY_MHA, TINY_MQA],
                         ids=lambda c: c.name)
def test_layer_replay_matches_eager(config, cache_kind):
    compiled, eager = _pair(config, cache_kind)
    for prompt in _prompts(config):
        got = _generate(compiled, prompt, STEPS)
        want = _generate(eager, prompt, STEPS)
        for step, (g, w) in enumerate(zip(got, want)):
            assert np.array_equal(g, w), f"logits differ at step {step}"

    ops = compiled.ops
    labels = [label for label, _trace in ops.traces]
    assert labels == [label for label, _trace in eager.ops.traces]
    # Each program lists its capture's live trace once; every other
    # launch lists its program's sealed record under its own label.
    records = _records(ops)
    live = [pair for pair in ops.traces if id(pair[1]) not in records]
    assert len(live) == len(ops._resident)
    for label, trace in ops.traces:
        if id(trace) in records:
            assert records[id(trace)] == (label, trace)

    grid = ops.grid
    buckets = {-(-t // grid) * grid
               for t in range(PROMPT_TOKENS + 1, PROMPT_TOKENS + STEPS + 1)}
    assert len(buckets) >= 3
    assert set(compiled._layer_tapes) == {
        (layer, bucket)
        for layer in range(config.num_layers) for bucket in buckets
    }


def test_a_replayed_step_lists_the_layers_launches_in_order():
    compiled, eager = _pair(TINY_GQA)
    prompt = _prompts(TINY_GQA, 1)[0]
    _generate(compiled, prompt, STEPS)
    _generate(eager, prompt, STEPS)
    # The second prompt replays every layer; one decode step lists 25
    # launches per layer plus the final norm and the LM head.
    for model in (compiled, eager):
        model.reset()
        model.prefill(prompt)
    before = compiled.ops.total_kernels()
    tapes = dict(compiled._layer_tapes)
    want = eager.decode_step(3)
    assert np.array_equal(compiled.decode_step(3), want)
    assert compiled._layer_tapes == tapes  # replayed, not re-captured
    listed = compiled.ops.traces[before:]
    assert len(listed) == 2 * 25 + 2
    assert ([label for label, _t in listed]
            == [label for label, _t in eager.ops.traces[-len(listed):]])
    records = _records(compiled.ops)
    assert all(id(trace) in records for _label, trace in listed)


def test_tape_table_is_bounded_by_layers_and_buckets():
    compiled, eager = _pair(TINY_GQA)
    prompt = _prompts(TINY_GQA, 1)[0]
    steps = TINY_GQA.max_seq_len - PROMPT_TOKENS
    for _ in range(2):
        got = _generate(compiled, prompt, steps)
    want = _generate(eager, prompt, steps)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    bound = TINY_GQA.num_layers * math.ceil(
        TINY_GQA.max_seq_len / compiled.ops.grid)
    assert len(compiled._layer_tapes) <= bound


def test_failed_replay_evicts_its_tape_and_recaptures():
    compiled, eager = _pair(TINY_GQA)
    prompt = _prompts(TINY_GQA, 1)[0]
    want = _generate(eager, prompt, STEPS)
    _generate(compiled, prompt, STEPS)

    # The first decode step of the prompt replays (layer 0, KV 8).
    key = (0, 8)
    tape = compiled._layer_tapes[key]
    def fail(regs):
        raise RuntimeError("injected mid-replay failure")

    tape.steps[len(tape.steps) // 2] = fail
    compiled.reset()
    compiled.prefill(prompt)
    with pytest.raises(RuntimeError, match="injected"):
        compiled.decode_step(int(np.argmax(want[0][-1])))
    assert key not in compiled._layer_tapes

    got = _generate(compiled, prompt, STEPS)
    assert compiled._layer_tapes[key] is not tape
    for step, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), f"logits differ at step {step}"


def test_failed_launch_step_evicts_its_machine_and_every_tape():
    compiled, eager = _pair(TINY_GQA)
    prompt = _prompts(TINY_GQA, 1)[0]
    want = _generate(eager, prompt, STEPS)
    _generate(compiled, prompt, STEPS)
    ops = compiled.ops
    machines = len(ops._resident)
    generation = ops._generation
    tapes = dict(compiled._layer_tapes)

    # A q-projection step fed a vector too long for its padded shape
    # fails inside its launch: its warm machine goes, and every tape
    # bound to the context's machines re-captures before it runs again.
    step = compiled._layer_tapes[(0, 8)].steps[1]
    with pytest.raises(ValueError):
        step({"h": np.ones(TINY_GQA.d_model + 4)})
    assert len(ops._resident) == machines - 1
    assert ops._generation == generation + 1

    got = _generate(compiled, prompt, STEPS)
    assert len(ops._resident) == machines
    assert compiled._layer_tapes.keys() == tapes.keys()
    assert all(compiled._layer_tapes[k] is not tapes[k] for k in tapes)
    for step_idx, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), f"logits differ at step {step_idx}"
