"""State stays bounded on long runs, on both stacks.

Serving: a pure-decode horizon run is one event-log row with one segment
per context bucket, its clock is planned one bucket at a time, and the
watchdog baseline counts distinct durations instead of keeping every
step.  So a :class:`ServeEngine`'s peak traced memory must not grow with
the number of decode steps: 4x longer outputs, same peak.

Functional: a warm mesh launch lists its program's sealed launch record
instead of building a trace, so a :class:`WaferTransformer` that
generates prompt after prompt holds the same live memory after the
sixth as after the first, and a machine's replay tapes, which hold its
tiles, are collected with it.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np

from repro.core.device_presets import TINY_MESH, get_device
from repro.gemv.meshgemv import MeshGEMV
from repro.llm.checkpoint import synthesize_weights
from repro.llm.config import TINY_GQA, get_model
from repro.llm.distributed import WaferTransformer
from repro.mesh.machine import MeshMachine
from repro.serving.chunked import ServeEngine, WaferServer
from repro.serving.request import Request

DEVICE = get_device("ipu-like-crossbar")
MODEL = get_model("tiny-gqa")


def _traced_run(seq_out):
    """(tracemalloc peak in bytes, metrics) of one warm engine run."""
    server = WaferServer(MODEL, DEVICE, chunk_tokens=64,
                         default_context_len=512, max_batch=4)
    trace = [Request(i, seq_in=64, seq_out=seq_out) for i in range(4)]
    ServeEngine(server, trace).run()  # fill the shared step-cost cache
    tracemalloc.start()
    try:
        metrics = ServeEngine(server, trace).run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, metrics


def test_peak_memory_is_flat_in_output_length():
    short_peak, short = _traced_run(1000)
    long_peak, long = _traced_run(4000)
    assert long.total_decode_tokens == 4 * short.total_decode_tokens
    assert len(long.events) > 3.9 * len(short.events)
    assert long_peak < 1.3 * short_peak, (short_peak, long_peak)


def test_functional_state_is_flat_in_prompts():
    """Six 16-token prompts, each decoded to ``max_seq_len`` (47 decode
    steps), on one transformer: live traced memory after the sixth is
    within 1 MB of after the first."""
    transformer = WaferTransformer(synthesize_weights(TINY_GQA, seed=0))
    rng = np.random.default_rng(0)
    prompts = [rng.integers(0, TINY_GQA.vocab_size, 16) for _ in range(6)]
    live = []
    tracemalloc.start()
    try:
        for prompt in prompts:
            transformer.reset()
            logits = transformer.prefill(prompt)
            token = int(np.argmax(logits[-1]))
            while transformer.position < TINY_GQA.max_seq_len - 1:
                token = int(np.argmax(transformer.decode_step(token)))
            live.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert transformer.ops.total_kernels() > 6 * 2000
    assert live[-1] - live[0] < 2**20, live


def test_replay_tapes_die_with_their_machine():
    """A replayed machine's tile arrays are freed with the machine: the
    tape compiled against it does not outlive it."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1, 16))
    b = rng.standard_normal((16, 16))
    _, program = MeshGEMV.capture_run(MeshMachine(TINY_MESH.submesh(4, 4)), a, b)
    machine = MeshMachine(TINY_MESH.submesh(4, 4))
    MeshGEMV.replay_run(machine, program, a, b)
    tiles = [
        weakref.ref(tile)
        for core in machine.cores.values()
        for tile in core._tiles.values()
    ]
    assert tiles
    del machine
    gc.collect()
    assert [ref for ref in tiles if ref() is not None] == []
