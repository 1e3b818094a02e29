"""Extension bench — continuous batching fills the pipeline bubbles.

Not a paper table (the paper serves single streams); this quantifies its
Section 7.5/8 narrative: concurrent streams recover the bubbled
stage-cycles, so serving throughput scales far past the single-stream
decode rate while each stream's latency stays close to it.  A batched
decode step is :meth:`WaferLLMSystem.fused_step_cost` with no prefill
chunk: the weight-stationary skeleton once, plus per-stream arithmetic.
"""

import os

from repro.bench.reporting import format_table
from repro.core import WSE2
from repro.llm import LLAMA3_8B
from repro.llm.wafer_system import WaferLLMSystem
from repro.serving import Request, WaferServer
from conftest import OUT_DIR

GRID = 360
CONTEXT = 2048


def test_batch_throughput_scaling(benchmark):
    system = WaferLLMSystem(WSE2)

    def sweep():
        return {
            b: b / system.fused_step_cost(LLAMA3_8B, CONTEXT, b, 0,
                                          GRID).seconds
            for b in (1, 2, 4, 8, 16, 32, 64)
        }

    rates = benchmark(sweep)
    rows = [[str(b), f"{rate:,.0f}", f"{rate / rates[1]:.1f}x"]
            for b, rate in rates.items()]
    table = format_table(
        "Serving: batched decode throughput (LLaMA3-8B @ 360x360)",
        ["batch", "tok/s", "vs single"], rows,
    )
    print("\n" + table)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "serving_batching.txt"), "w") as handle:
        handle.write(table + "\n")

    # Monotone scaling with diminishing returns.
    values = list(rates.values())
    assert values == sorted(values)
    assert rates[8] > 2 * rates[1]
    gain_lo = rates[2] / rates[1]
    gain_hi = rates[64] / rates[32]
    assert gain_hi < gain_lo  # compute eventually dominates


def test_serving_end_to_end(benchmark):
    server = WaferServer(LLAMA3_8B, WSE2, mode="exclusive", max_batch=8)
    # Short prompts, long generations: the decode batch actually fills.
    requests = [Request(i, 128, 1024, arrival_s=0.02 * i) for i in range(16)]

    def run():
        return server.serve(requests)

    metrics = benchmark(run)
    assert metrics.finished == 16
    assert metrics.peak_batch > 1
    # Aggregate throughput beats the single-stream decode rate.
    single = server.system.decode_throughput(LLAMA3_8B, CONTEXT, server.grid)
    assert metrics.throughput_tokens_per_s > single
