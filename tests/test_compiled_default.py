"""The default ``MeshOpContext`` (compiled, warm machines) against the
eager oracle, on full generations.

Each model decodes two prompts to ``max_seq_len`` through the default
context and through ``MeshOpContext(compiled=False)``.  Every padded
KV-cache length is crossed, so every warm shape machine is created and
then reused.  Logits must be bit-identical at every step, the modelled
mesh work identical launch by launch, and the set of warm machines
bounded by padded shapes, never by weights or tokens.
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
    """Warm-machine counts: (keyed by an array's id, shape, line-reduce)."""
    by_id = shapes = lines = 0
    for key in ops._resident:
        if key[0] == "line-reduce":
            lines += 1
        elif isinstance(key[1], int):
            by_id += 1
        else:
            shapes += 1
    return by_id, shapes, lines


def _padded_weight_shapes(weights, grid: int):
    """Distinct padded shapes of the matrices decode multiplies by."""
    mats = [weights.lm_head] + [
        getattr(layer, name)
        for layer in weights.layers
        for name in ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down")
    ]
    return {tuple(-(-d // grid) * grid for d in m.shape) for m in mats}


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

    # Bounded state: machines for padded shapes and the two line
    # reductions only, none keyed by a weight array.  The second prompt
    # crosses the same padded shapes as the first, so it adds no
    # machine at all.
    kv_lengths = {
        -(-t // grid) * grid
        for t in range(PROMPT_TOKENS + 1, config.max_seq_len + 1)
    }
    weight_shapes = _padded_weight_shapes(weights, grid)
    id_entries, shape_entries, line_entries = _resident_kinds(compiled.ops)
    assert id_entries == 0
    assert line_entries <= 2
    # Score and value GEMV per padded KV length, one per padded weight
    # shape, and the prefill signatures of the single prompt length.
    assert shape_entries <= (
        2 * len(kv_lengths) + len(weight_shapes) + PREFILL_SHAPES
    )
    decode_steps = config.max_seq_len - PROMPT_TOKENS
    assert counts[decode_steps:] == [counts[decode_steps - 1]] * decode_steps


@pytest.mark.parametrize(
    "config", [TINY_GQA, TINY_MHA, TINY_MQA], ids=lambda c: c.name
)
def test_every_resident_program_compiles_to_slab_steps(config):
    """Prefill and decode capture only programs whose every op runs on
    slabs: each warm entry's bound tape is the machine's compiled tape of
    its program, for every kernel the model launches (a program with any
    other op would have refused to compile at capture)."""
    weights = synthesize_weights(config, seed=3)
    model = WaferTransformer(weights)
    prompt = np.random.default_rng(11).integers(
        0, config.vocab_size, PROMPT_TOKENS
    )
    token = int(np.argmax(model.prefill(prompt)[-1]))
    for _ in range(3):
        token = int(np.argmax(model.decode_step(token)))
    resident = model.ops._resident
    assert {key[0] for key in resident} == {
        "meshgemm", "meshgemm-t", "meshgemv", "line-reduce"
    }
    for entry in resident.values():
        machine, tape = entry["machine"], entry["run"].args[1]
        assert entry["run"].args[0] is machine
        assert tape is machine._tapes[entry["program"]]
