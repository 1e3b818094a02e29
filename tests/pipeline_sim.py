"""Discrete-event pipeline simulator: bubbles, measured not derived.

A test oracle for :class:`~repro.runtime.scheduler.PipelineSchedule`,
which *derives* utilization from the classic ``m / (s + m - 1)``
fill/drain formula.  This module *measures* it: stage regions are resources, tokens are jobs traversing
them in order, and utilization is busy-time over elapsed-time summed
across stages.  Tests pin the simulation to the formula for uniform
stages — and the simulator then answers questions the formula cannot,
such as the effect of imbalanced stages (the paper's Section 7.5 note
that LLaMA's narrow layers placed across regions "exacerbate bubble
issues").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PipelineRun:
    """Outcome of simulating tokens through the stage pipeline."""

    num_stages: int
    num_tokens: int
    makespan: float
    stage_busy_time: tuple

    @property
    def utilization(self) -> float:
        """Mean busy fraction across stages."""
        if self.makespan <= 0:
            return 0.0
        return sum(self.stage_busy_time) / (
            self.num_stages * self.makespan
        )

    @property
    def bubble_fraction(self) -> float:
        """Idle fraction of stage-time."""
        return 1.0 - self.utilization

    @property
    def bottleneck_stage(self) -> int:
        """Index of the busiest stage."""
        return max(range(self.num_stages),
                   key=lambda i: self.stage_busy_time[i])


def simulate_pipeline(
    stage_times: Sequence[float],
    num_tokens: int,
    streams: int = 1,
) -> PipelineRun:
    """Push tokens through the stages and measure utilization.

    ``streams`` independent sequences are interleaved: a stream's next
    token may enter stage 0 only after its previous token left the last
    stage (autoregressive dependency), but different streams pipeline
    freely — this is exactly how concurrent queries fill the bubbles.
    """
    stages = [float(t) for t in stage_times]
    if not stages or any(t <= 0 for t in stages):
        raise ConfigurationError("stage times must be positive")
    if num_tokens < 1 or streams < 1:
        raise ConfigurationError("need at least one token and one stream")

    s = len(stages)
    stage_free = [0.0] * s
    busy = [0.0] * s
    # Per-stream: time its previous token cleared the pipeline.
    stream_ready = [0.0] * streams
    # Round-robin the streams' tokens (continuous batching order).
    finish = 0.0
    for token_idx in range(num_tokens):
        stream = token_idx % streams
        t = stream_ready[stream]
        for i, service in enumerate(stages):
            start = max(t, stage_free[i])
            t = start + service
            stage_free[i] = t
            busy[i] += service
        stream_ready[stream] = t
        finish = max(finish, t)
    return PipelineRun(
        num_stages=s,
        num_tokens=num_tokens,
        makespan=finish,
        stage_busy_time=tuple(busy),
    )


def uniform_stage_utilization(
    num_stages: int, streams: int, tokens_per_stream: int = 64
) -> float:
    """Measured steady-state utilization for uniform stages.

    Converges to ``min(1, m / s)`` for the round-robin schedule as the
    token count grows (the fill/drain formula's steady-state limit).
    """
    run = simulate_pipeline(
        [1.0] * num_stages, tokens_per_stream * streams, streams
    )
    return run.utilization


def imbalance_penalty(
    stage_times: Sequence[float], streams: int, tokens: int = 256
) -> float:
    """Throughput loss of imbalanced stages vs their balanced equivalent.

    Returns ``balanced_throughput / actual_throughput`` (>= 1); the
    pipeline runs at its slowest stage, so skew in layer placement
    directly becomes bubbles — the Section 7.5 observation about
    GPU-shaped (narrow-layer) models on wafer regions.
    """
    actual = simulate_pipeline(stage_times, tokens, streams)
    mean = sum(stage_times) / len(stage_times)
    balanced = simulate_pipeline([mean] * len(stage_times), tokens, streams)
    return balanced.num_tokens / balanced.makespan \
        / (actual.num_tokens / actual.makespan)
