#!/usr/bin/env python3
"""End-to-end LLM inference: functional on a tiny model, estimated at scale.

    python examples/llama_inference.py

Part 1 mirrors the paper's Python layer: synthesize a checkpoint, save
it, load it back, and run *functional distributed inference* — every
matmul through MeshGEMM/MeshGEMV/dist-GEMM-T, every reduction through
the two-way K-tree, KV vectors through the shift-based cache — and
validate the generated tokens against the dense reference model.

Part 2 estimates LLaMA3-8B at wafer scale: prefill/decode throughput at
the paper's core configurations, the pipeline-stage structure, the
prefill -> decode re-placement cost, and a Table 2-style summary.
"""

import os
import tempfile

import numpy as np

from repro.core import WSE2
from repro.llm import (
    LLAMA3_8B,
    TINY_GQA,
    ReferenceTransformer,
    WaferLLMEngine,
    WaferLLMSystem,
    load_checkpoint,
    save_checkpoint,
    synthesize_weights,
)
from repro.placement.transition import transition_cost
from repro.runtime import PipelineSchedule


def functional_demo() -> None:
    print("=== Part 1: functional distributed inference (tiny GQA model) ===")
    weights = synthesize_weights(TINY_GQA, seed=7)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tiny-gqa.npz")
        save_checkpoint(weights, path)
        print(f"  checkpoint saved and re-loaded "
              f"({os.path.getsize(path) / 1024:.0f} KiB)")
        weights = load_checkpoint(path)

    engine = WaferLLMEngine(TINY_GQA, weights=weights)
    prompt = np.array([5, 12, 3])
    generated = engine.generate(prompt, num_tokens=8)
    expected = ReferenceTransformer(weights).generate(prompt, 8)
    print(f"  prompt tokens    : {prompt.tolist()}")
    print(f"  mesh-generated   : {generated.tolist()}")
    print(f"  reference        : {expected.tolist()}")
    assert np.array_equal(generated, expected), "mesh != reference!"
    kernels = engine.transformer.ops.total_kernels()
    print(f"  distributed kernels launched: {kernels}")
    occupancy = engine.transformer.kv_cache(0).row_occupancy()
    print(f"  shift-KV row occupancy after generation: {occupancy}")


def wafer_scale_estimates() -> None:
    print("\n=== Part 2: LLaMA3-8B on the WSE-2 (cost model) ===")
    system = WaferLLMSystem(WSE2)
    prefill = system.prefill_throughput(LLAMA3_8B, 4096)
    decode = system.decode_throughput(LLAMA3_8B, 2048)

    print(f"  prefill  @660x660: {prefill:10.0f} tok/s "
          f"(paper: 25037 @600x600)")
    print(f"  decode   @360x360: {decode:10.0f} tok/s "
          f"(paper: 2699 @420x420)")

    schedule = PipelineSchedule(LLAMA3_8B, WSE2,
                                system.decode_grid(LLAMA3_8B))
    print(f"  pipeline stages on 360x360 regions: {schedule.num_stages} "
          f"(single-stream utilization {schedule.utilization():.2f})")
    transition = transition_cost(LLAMA3_8B, WSE2)
    print(f"  prefill->decode re-placement: {transition.seconds * 1e3:.3f} ms")

    print("\n  Table 2-style summary (generated tokens/s):")
    for seq_in, seq_out in ((2048, 128), (4096, 128), (2048, 2048),
                            (4096, 4096)):
        result = system.generation(LLAMA3_8B, seq_in, seq_out)
        print(f"    {seq_in:5d}/{seq_out:<5d} "
              f"{result.throughput_tokens_per_s:8.1f} tok/s   "
              f"(prefill {result.prefill_seconds * 1e3:7.1f} ms, "
              f"decode {result.decode_seconds:6.2f} s, "
              f"{result.tokens_per_joule:.4f} tok/J)")


def main() -> None:
    functional_demo()
    wafer_scale_estimates()


if __name__ == "__main__":
    main()
