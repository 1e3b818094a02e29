"""Simulator micro-benchmarks: functional kernel wall-clock on small meshes.

These time the *simulator itself* (not the modelled wafer): one full
functional MeshGEMM / MeshGEMV / distributed-transformer step on small
meshes, so regressions in the mesh machine's overhead show up in
``pytest-benchmark`` history.
"""

import numpy as np
import pytest

from repro.core.device_presets import TINY_MESH
from repro.gemm import MeshGEMM
from repro.gemv import MeshGEMV
from repro.llm.checkpoint import synthesize_weights
from repro.llm.config import TINY_GQA
from repro.llm.distributed import WaferTransformer
from repro.mesh.machine import MeshMachine

RNG = np.random.default_rng(0)
GEMM_A = RNG.standard_normal((24, 24))
GEMM_B = RNG.standard_normal((24, 24))
GEMV_A = RNG.standard_normal(24)
WEIGHTS = synthesize_weights(TINY_GQA, seed=1)


def test_functional_meshgemm_8x8(benchmark):
    def run():
        machine = MeshMachine(TINY_MESH.submesh(8, 8))
        return MeshGEMM.run(machine, GEMM_A, GEMM_B)

    result = benchmark(run)
    assert np.allclose(result, GEMM_A @ GEMM_B)


def test_functional_meshgemv_8x8(benchmark):
    def run():
        machine = MeshMachine(TINY_MESH.submesh(8, 8))
        return MeshGEMV.run(machine, GEMV_A, GEMM_B)

    result = benchmark(run)
    assert np.allclose(result, GEMV_A @ GEMM_B)


def test_functional_decode_step(benchmark):
    transformer = WaferTransformer(WEIGHTS)
    prompt = np.array([1, 2, 3])
    token = [4]

    def setup():
        # Untimed: start a fresh prompt before the context reaches
        # max_seq_len, past which decode_step raises.
        if transformer.position in (0, TINY_GQA.max_seq_len):
            transformer.reset()
            transformer.prefill(prompt)

    def step():
        logits = transformer.decode_step(token[0])
        token[0] = int(np.argmax(logits)) % TINY_GQA.vocab_size
        return logits

    logits = benchmark.pedantic(step, setup=setup, rounds=100, iterations=1)
    assert logits.shape == (TINY_GQA.vocab_size,)
