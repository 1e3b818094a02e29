#!/usr/bin/env python3
"""Memory pressure and quantization: the M property end to end.

    python examples/memory_and_quantization.py

Walks the paper's memory story with the library's tools:

1. the **admission audit** — why Table 2 only runs LLaMA3-8B and
   LLaMA2-13B while CodeLLaMA-34B and QWen2-72B get layer subsets;
2. the **pipeline structure** the 48 KB cores force, its bubble
   fractions, and what one imbalanced stage costs;
3. what **int8 quantization** buys: verified-accurate inference on a
   tiny model, then halved stages / doubled KV budget at scale.
"""

import numpy as np

from repro.core import WSE2
from repro.llm import (
    CODELLAMA_34B,
    LLAMA2_13B,
    LLAMA3_8B,
    QWEN2_72B,
    TINY_GQA,
    ReferenceTransformer,
    quantization_error,
    quantize_weights,
    quantized_config,
    synthesize_weights,
)
from repro.runtime import PipelineSchedule, audit_model, required_layer_subset

MODELS = (LLAMA3_8B, LLAMA2_13B, CODELLAMA_34B, QWEN2_72B)


def admission() -> None:
    print("=== 1. Memory audit on the WSE-2 (Section 7.1's admission) ===")
    for model in MODELS:
        audit = audit_model(model, WSE2)
        print(f"  {audit.summary()}")
        if not audit.fits_end_to_end:
            subset = required_layer_subset(model, WSE2)
            print(f"    -> paper-style layer subset: {subset} of "
                  f"{model.num_layers} layers")


def bubbles() -> None:
    print("\n=== 2. Pipeline stages and their bubbles (LLaMA3-8B) ===")
    schedule = PipelineSchedule(LLAMA3_8B, WSE2, region_side=360)
    print(f"  stages: {schedule.num_stages}")
    for streams in (1, 2, 4, 8):
        print(f"  {streams} stream(s): utilization "
              f"{schedule.utilization(streams):.2f} "
              f"(bubbles {schedule.bubble_fraction(streams):.0%})")
    # A saturated pipeline runs at its slowest stage.
    skewed = (1.0, 1.0, 2.0, 1.0, 1.0)
    print(f"  one 2x-slow stage caps utilization at "
          f"{sum(skewed) / (len(skewed) * max(skewed)):.2f} — imbalanced "
          f"layer placement is what Section 7.5 warns about")


def quantization() -> None:
    print("\n=== 3. Quantization: accuracy checked, memory relieved ===")
    weights = synthesize_weights(TINY_GQA, seed=13)
    error = quantization_error(weights, bits=8)
    prompt = np.array([4, 9, 2])
    exact = ReferenceTransformer(weights).generate(prompt, 6)
    int8 = ReferenceTransformer(
        quantize_weights(weights, 8).dequantize()).generate(prompt, 6)
    print(f"  int8 worst relative weight error: {error:.4f}")
    print(f"  greedy tokens fp64 : {exact.tolist()}")
    print(f"  greedy tokens int8 : {int8.tolist()}")

    for model in (LLAMA2_13B,):
        fp16 = audit_model(model, WSE2)
        int8_audit = audit_model(quantized_config(model, 8), WSE2)
        s_fp16 = PipelineSchedule(model, WSE2, 375).num_stages
        s_int8 = PipelineSchedule(quantized_config(model, 8), WSE2,
                                  375).num_stages
        print(f"  {model.name}: weights/core "
              f"{fp16.weights_per_core / 1024:.1f} -> "
              f"{int8_audit.weights_per_core / 1024:.1f} KiB, "
              f"KV budget {fp16.kv_budget_per_core / 1024:.1f} -> "
              f"{int8_audit.kv_budget_per_core / 1024:.1f} KiB, "
              f"stages {s_fp16} -> {s_int8}")


def main() -> None:
    admission()
    bubbles()
    quantization()


if __name__ == "__main__":
    main()
