#!/usr/bin/env python3
"""Serving simulation: concurrent requests fill the pipeline bubbles.

    python examples/serving_simulation.py

The paper serves one stream and pays ~5x utilization loss to pipeline
bubbles (Section 7.5).  This example runs the extension serving layer:
the calibrated WSE-2 batched-step cost (the weight-stationary skeleton
once, plus per-stream arithmetic), swept over the batch size to show
throughput climbing toward the bubble-free ceiling; then the
continuous-batching server on a mixed trace; then chunked prefill
against exclusive prefill on one shared trace.
"""

from repro.core import WSE2
from repro.llm import LLAMA3_8B, WaferLLMSystem
from repro.runtime import PipelineSchedule
from repro.serving import Request, WaferServer, compare_modes, synthetic_trace


def batch_sweep() -> None:
    print("=== Batched decode throughput, LLaMA3-8B @ 360x360 ===")
    system = WaferLLMSystem(WSE2)

    def rate_at(batch: int) -> float:
        step = system.fused_step_cost(LLAMA3_8B, 2048, batch, 0, 360)
        return batch / step.seconds

    single = rate_at(1)
    print(f"{'batch':>6s} {'tok/s':>10s} {'x single':>9s}")
    for batch in (1, 2, 4, 8, 16, 32, 64):
        rate = rate_at(batch)
        print(f"{batch:6d} {rate:10,.0f} {rate / single:8.1f}x")
    schedule = PipelineSchedule(LLAMA3_8B, WSE2, 360)
    print(f"\npipeline stages: {schedule.num_stages}; multi-stream "
          f"utilization at batch 8: {schedule.utilization(8):.2f} "
          f"(vs {schedule.utilization(1):.2f} single-stream)")


def request_trace() -> None:
    print("\n=== Serving 12 mixed requests (Poisson-ish arrivals) ===")
    server = WaferServer(LLAMA3_8B, WSE2, max_batch=8)
    requests = [
        Request(i, seq_in=512 * (1 + i % 3), seq_out=64 + 32 * (i % 4),
                arrival_s=0.08 * i)
        for i in range(12)
    ]
    metrics = server.serve(requests)
    print(f"  makespan      : {metrics.makespan_s:.2f} s")
    print(f"  peak batch    : {metrics.peak_batch}")
    print(f"  throughput    : {metrics.throughput_tokens_per_s:,.0f} tok/s")
    print(f"  mean latency  : {metrics.mean_latency_s:.2f} s")
    print(f"  p99 latency   : {metrics.p99_latency_s:.2f} s")
    print(f"\n  {'req':>4s} {'queue(s)':>9s} {'decode tok/s':>13s}")
    for stat in metrics.completed[:6]:
        print(f"  {stat.request.request_id:4d} {stat.queueing_s:9.3f} "
              f"{stat.decode_tokens_per_s:13,.0f}")


def chunked_vs_exclusive() -> None:
    print("\n=== Chunked vs exclusive prefill (16 requests, SLOs) ===")
    trace = synthetic_trace(
        16, seed=7, mean_interarrival_s=0.03,
        seq_in_range=(256, 2048), seq_out_range=(32, 128),
        ttft_slo_s=1.0, tpot_slo_s=0.05,
    )
    results = compare_modes(LLAMA3_8B, WSE2, trace,
                            chunk_tokens=256, max_batch=16)
    print(f"  {'mode':>10s} {'goodput':>9s} {'p99 TTFT':>9s} "
          f"{'SLO':>6s} {'stall(s)':>9s}")
    for mode, metrics in results.items():
        print(f"  {mode:>10s} {metrics.goodput_tokens_per_s:9,.0f} "
              f"{metrics.p99_ttft_s:9.3f} {metrics.slo_attainment:6.2f} "
              f"{metrics.decode_stall_s:9.3f}")
    print("  (chunked prefill rides the decode step with weights "
          "resident;\n   exclusive prefill streams weights and stalls "
          "every decode stream)")


def main() -> None:
    batch_sweep()
    request_trace()
    chunked_vs_exclusive()


if __name__ == "__main__":
    main()
