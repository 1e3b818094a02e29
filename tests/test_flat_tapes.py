"""Flat decode tapes: step-owned buffers, one listing per token, shared steps.

A compiled decode step replays one flat tape: each GEMV step copies its
operands into its warm machine's slabs, runs the machine's compiled
steps and copies the root rows into a result buffer of its own; the
token's launches are listed with one extend after the last step.  These
tests pin what that must not change: the caller owns what it is handed,
a failing replay lists nothing and leaves no machine quiet, steps that
do not depend on the KV length are shared by every bucket's tape, and
replays stay bit-identical to eager at grids where the root rows and the
off-grid padding differ.
"""

import numpy as np
import pytest

from repro.llm.checkpoint import synthesize_weights
from repro.llm.config import TINY_GQA, TINY_MHA, TINY_MQA
from repro.llm.distributed import WaferTransformer
from repro.llm.mesh_ops import MeshOpContext
from repro.mesh.program import ProgramReplayError

#: A 5-token prompt decoded 9 steps: KV lengths 6..14 cross three padded
#: lengths on the 4-grid.
PROMPT_TOKENS = 5
STEPS = 9


def _prompt(config, seed=5):
    return np.random.default_rng(seed).integers(
        0, config.vocab_size, PROMPT_TOKENS
    )


def _generate(model, prompt, steps=STEPS):
    model.reset()
    logits = [model.prefill(prompt)]
    token = int(np.argmax(logits[-1][-1]))
    for _ in range(steps):
        logits.append(model.decode_step(token))
        token = int(np.argmax(logits[-1]))
    return logits


def _sealed(ops):
    """Every resident program's sealed record, by identity."""
    return {id(entry["launch"][1]) for entry in ops._resident.values()}


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "eager"])
@pytest.mark.parametrize("config", [TINY_GQA, TINY_MHA, TINY_MQA],
                         ids=lambda c: c.name)
def test_decode_logits_belong_to_the_caller(config, compiled):
    model = WaferTransformer(synthesize_weights(config, seed=3),
                             ops=MeshOpContext(compiled=compiled))
    prompt = _prompt(config)
    _generate(model, prompt)  # every bucket's tape exists: later steps replay
    model.reset()
    token = int(np.argmax(model.prefill(prompt)[-1]))
    handed = model.decode_step(token)
    kept = handed.tobytes()
    for _ in range(3):
        token = int(np.argmax(model.decode_step(token)))
    model.reset()
    model.prefill(_prompt(config, seed=6))
    model.decode_step(1)  # the same bucket as ``handed``
    assert handed.tobytes() == kept


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "eager"])
@pytest.mark.parametrize("config", [TINY_GQA, TINY_MHA, TINY_MQA],
                         ids=lambda c: c.name)
def test_per_launch_gemv_results_share_no_slab(config, compiled):
    weights = synthesize_weights(config, seed=3)
    ops = MeshOpContext(compiled=compiled)
    made = []
    fresh = ops._machine

    def machine(height):
        made.append(fresh(height))
        return made[-1]

    ops._machine = machine
    model = WaferTransformer(weights, ops=ops)
    _generate(model, _prompt(config), steps=3)
    rng = np.random.default_rng(1)
    layer = weights.layers[0]
    results = []
    for matrix in (layer.wq, layer.wk, layer.w_down, weights.lm_head):
        vec = rng.standard_normal(matrix.shape[0])
        results += [ops.gemv(vec, matrix), ops.gemv(vec, matrix)]
    slabs = [slab for m in made for slab, _views in m._slabs.values()]
    assert slabs
    for out in results:
        assert not any(np.shares_memory(out, slab) for slab in slabs)


def test_failed_flat_replay_lists_nothing_and_recaptures():
    weights = synthesize_weights(TINY_GQA, seed=3)
    compiled = WaferTransformer(weights)
    eager = WaferTransformer(weights, ops=MeshOpContext(compiled=False))
    prompt = _prompt(TINY_GQA)
    want = _generate(eager, prompt)
    _generate(compiled, prompt)
    ops = compiled.ops
    machines = [entry["machine"] for entry in ops._resident.values()]
    generation = ops._generation

    # The w_down machine runs mid-token, after a layer's attention: a core
    # whose gemv.B tile is no longer its slab view fails that machine's
    # guard inside its compiled step.
    [key] = [k for k in ops._resident
             if k[0] == "meshgemv" and k[1][0] == (TINY_GQA.d_ff,)]
    machine = ops._resident[key]["machine"]
    core = machine.core(next(iter(machine.topology.coords())))
    core.store("gemv.B", core.load("gemv.B").copy())

    bucket = 8  # the first decode step of the prompt replays this tape
    tape = compiled._tapes[bucket]
    compiled.reset()
    compiled.prefill(prompt)
    listed = len(ops.traces)
    with pytest.raises(ProgramReplayError, match="slab view"):
        compiled.decode_step(int(np.argmax(want[0][-1])))
    assert len(ops.traces) == listed
    assert bucket not in compiled._tapes
    assert key not in ops._resident
    assert ops._generation == generation + 1
    assert not any(m._quiet_memory for m in machines)

    got = _generate(compiled, prompt)
    assert compiled._tapes[bucket] is not tape
    for step, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), f"logits differ at step {step}"


def test_key_independent_steps_are_shared_by_every_tape():
    model = WaferTransformer(synthesize_weights(TINY_GQA, seed=3))
    _generate(model, _prompt(TINY_GQA))
    tapes = list(model._tapes.values())
    assert len(tapes) >= 3
    per_tape = 0
    for i, op in enumerate(model._plan):
        steps = {id(tape.steps[i]) for tape in tapes}
        assert len(steps) == (len(tapes) if op.per_tape else 1), i
        per_tape += op.per_tape
    # Per layer and head, the score and the value GEMV.
    assert per_tape == 2 * TINY_GQA.num_layers * TINY_GQA.n_heads
    # A tape's listing is its steps' launches, in plan order.
    for tape in tapes:
        assert tape.listed == tuple(
            pair for pairs in tape.launches for pair in pairs
        )


@pytest.mark.parametrize("grid", [1, 3, 5])
def test_flat_replay_matches_eager_at_other_grids(grid):
    weights = synthesize_weights(TINY_GQA, seed=3)
    compiled = WaferTransformer(weights, ops=MeshOpContext(grid=grid))
    eager = WaferTransformer(weights,
                             ops=MeshOpContext(grid=grid, compiled=False))
    prompt = _prompt(TINY_GQA)
    for _ in range(2):  # the second pass replays every tape
        got = _generate(compiled, prompt)
        want = _generate(eager, prompt)
        for step, (g, w) in enumerate(zip(got, want)):
            assert np.array_equal(g, w), f"logits differ at step {step}"

    ops = compiled.ops
    assert ([label for label, _t in ops.traces]
            == [label for label, _t in eager.ops.traces])
    # The second pass's decode steps list only sealed records.
    launches = len(ops.traces) // 2
    sealed = _sealed(ops)
    decode = ops.traces[-launches:][-STEPS * (2 * 25 + 2):]
    assert all(id(trace) in sealed for _label, trace in decode)
    buckets = {-(-t // grid) * grid
               for t in range(PROMPT_TOKENS + 1, PROMPT_TOKENS + STEPS + 1)}
    assert set(compiled._tapes) == buckets


def test_strided_weight_changed_in_place_between_decode_steps():
    """A weight that is not C-contiguous (Fortran-ordered) is copied
    from a view of the live array on every run, so an in-place change
    is served fresh."""
    weights = synthesize_weights(TINY_GQA, seed=4)
    layer = weights.layers[0]
    layer.wq = np.asfortranarray(layer.wq)
    layer.w_down = np.asfortranarray(layer.w_down)
    compiled = WaferTransformer(weights)
    eager = WaferTransformer(weights, ops=MeshOpContext(compiled=False))
    prompt = _prompt(TINY_GQA)
    logits = [m.prefill(prompt)[-1] for m in (compiled, eager)]
    for scale in (1.0, 1.5, 1.0, 0.5):
        layer.wq *= scale
        layer.w_down *= scale
        token = int(np.argmax(logits[0]))
        logits = [m.decode_step(token) for m in (compiled, eager)]
        assert np.array_equal(*logits)
