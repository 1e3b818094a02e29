"""The default ``MeshOpContext`` (compiled, warm machines) against the
eager oracle, on full generations.

Each model decodes two prompts to ``max_seq_len`` through the default
context and through ``MeshOpContext(compiled=False)``.  Every padded
KV-cache length is crossed, so every warm shape machine is created and
then reused.  Logits must be bit-identical at every step, the modelled
mesh work identical launch by launch, and the set of warm machines
bounded by weights and shapes, never by tokens.
"""

import numpy as np
import pytest

from repro.llm.checkpoint import synthesize_weights
from repro.llm.config import TINY_GQA, TINY_MHA, TINY_MQA
from repro.llm.distributed import WaferTransformer
from repro.llm.mesh_ops import MeshOpContext

PROMPT_TOKENS = 5
#: GEMM/GEMM-T operand signatures of one prefill at a fixed prompt
#: length: Q, K/V, the score and value products, the output
#: projection, gate/up, down and the LM head.
PREFILL_SHAPES = 8


def _launch_summary(ops: MeshOpContext):
    """Per launch: label, peak memory, flows, hop-bytes and MACs."""
    rows = []
    for label, trace in ops.traces:
        flows = sum(comm.num_flows for comm in trace.comms)
        hop_bytes = sum(
            f.hops * f.nbytes for comm in trace.comms for f in comm.flows
        )
        rows.append(
            (label, trace.peak_memory_bytes, flows, hop_bytes, trace.total_macs)
        )
    return rows


def _generate(model: WaferTransformer, prompt: np.ndarray, on_step=None):
    """Prefill plus greedy decode to ``max_seq_len``; every logits array."""
    model.reset()
    logits = [model.prefill(prompt)]
    token = int(np.argmax(logits[-1][-1]))
    while model.position < model.config.max_seq_len:
        logits.append(model.decode_step(token))
        token = int(np.argmax(logits[-1]))
        if on_step is not None:
            on_step(model)
    return logits


def _resident_kinds(ops: MeshOpContext):
    """Warm-machine counts: (weight-stationary, shape, line-reduce)."""
    weights = shapes = lines = 0
    for key in ops._resident:
        if key[0] == "line-reduce":
            lines += 1
        elif isinstance(key[1], int):
            weights += 1
        else:
            shapes += 1
    return weights, shapes, lines


@pytest.mark.parametrize(
    "config", [TINY_GQA, TINY_MQA, TINY_MHA], ids=lambda c: c.name
)
def test_default_matches_eager_oracle(config):
    weights = synthesize_weights(config, seed=3)
    compiled = WaferTransformer(weights)
    eager = WaferTransformer(weights, ops=MeshOpContext(compiled=False))
    assert compiled.ops.compiled and not eager.ops.compiled

    rng = np.random.default_rng(11)
    prompts = [
        rng.integers(0, config.vocab_size, PROMPT_TOKENS) for _ in range(2)
    ]
    grid = compiled.ops.grid
    counts = []
    for prompt in prompts:
        got = _generate(
            compiled, prompt,
            on_step=lambda m: counts.append(len(m.ops._resident)),
        )
        want = _generate(eager, prompt)
        assert len(got) == len(want)
        for step, (g, w) in enumerate(zip(got, want)):
            assert np.array_equal(g, w), f"logits differ at step {step}"

    # Same launches, same modelled work, same per-trace memory peaks.
    assert _launch_summary(compiled.ops) == _launch_summary(eager.ops)

    # Bounded state: machines for weights, shapes and the two line
    # reductions only.  The second prompt crosses the same padded
    # shapes as the first, so it adds no machine at all.
    n_weights = 7 * config.num_layers + 1
    kv_lengths = {
        -(-t // grid) * grid
        for t in range(PROMPT_TOKENS + 1, config.max_seq_len + 1)
    }
    weight_entries, shape_entries, line_entries = _resident_kinds(compiled.ops)
    assert weight_entries <= n_weights
    assert line_entries <= 2
    # Score and value GEMV per padded KV length, one first sighting per
    # weight, and the prefill signatures of the single prompt length.
    assert shape_entries <= 2 * len(kv_lengths) + n_weights + PREFILL_SHAPES
    decode_steps = config.max_seq_len - PROMPT_TOKENS
    assert counts[decode_steps:] == [counts[decode_steps - 1]] * decode_steps
