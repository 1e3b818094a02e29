"""Step-event log: columnar rows, run-length decode runs, streaming sums.

A serving run can take hundreds of thousands of steps, and the metric
rollups need two time-integrals over them (queue area and decode-stall
seconds).  :class:`StepEventLog` stores each step the reference loop
takes as one row of parallel columns of Python scalars and folds every
row into those integrals *as it is appended*, in append order, so the
running totals are bit-identical to post-hoc sums over the rows (float
addition in the same order).

Horizon-batched decode runs land through
:meth:`StepEventLog.extend_decode_run` as *one* run-length row: the
start clock, the ``(duration, count)`` segments (one per context
bucket the run crossed), the batch and the KV fields.  Timestamps are
rebuilt on read with the same ``np.add.accumulate`` the engine's clock
uses, so they are bit-identical to per-step appends by construction.
Such steps have zero queue depth and a non-stall kind, so the
accumulators are untouched (adding ``0.0`` is exact).

Rows are written as fields, never as objects; a :class:`StepEvent` is
built only when a reader indexes or iterates the log.  The read API is
``len`` (O(1); ``bool`` uses it), iteration, integer indexing (negative
too), and equality with another log; all of them see run rows expanded
into per-step events.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

# Step kinds during which live decode streams stall (produce no tokens
# while holding KV): exclusive prefill blocks, fault retries, and the
# remap/degrade windows of a persistent core death.
STALL_KINDS = frozenset({"prefill", "retry", "remap", "degrade"})


@dataclass(frozen=True)
class StepEvent:
    """One scheduler step: what ran and what the system looked like after.

    ``kind`` is ``"decode"`` (pure batched decode), ``"fused"`` (decode +
    piggybacked prefill chunk), ``"prefill"`` (chunk with no live decode
    streams, or an exclusive prefill block), ``"retry"`` (a step the
    fault injector killed; its time and backoff elapsed, nothing
    committed), ``"remap"`` (a persistent core death absorbed by
    re-sharding onto a spare region; the window covers the killed step
    plus re-shard and KV-recompute time), or ``"degrade"`` (a persistent
    core death with no spare left; capacity shrank and the killed step's
    time elapsed).
    """

    start_s: float
    end_s: float
    kind: str
    decode_batch: int
    chunk_tokens: int
    kv_tokens: int
    queue_depth: int

    @property
    def duration_s(self) -> float:
        """Wall-clock span of the step."""
        return self.end_s - self.start_s


#: One horizon run: start clock, ``(duration_s, steps)`` segments,
#: decode batch, KV reserved during the run, KV after its last step.
DecodeRun = Tuple[float, Tuple[Tuple[float, int], ...], int, int, int]


def run_clock(start_s: float, segments: Sequence[Tuple[float, int]]):
    """Clock after each step of a run: ``times[j]`` is after ``j`` steps.

    ``np.add.accumulate`` adds strictly left to right, the same IEEE-754
    sequence as a per-step ``now += duration`` walk.
    """
    times = np.empty(sum(c for _, c in segments) + 1, dtype=np.float64)
    times[0] = start_s
    at = 1
    for duration_s, count in segments:
        times[at:at + count] = duration_s
        at += count
    return np.add.accumulate(times, out=times)


class StepEventLog:
    """Step-event log: single-step columns plus run-length decode rows."""

    __slots__ = (
        "_start_s",
        "_end_s",
        "_kind",
        "_decode_batch",
        "_chunk_tokens",
        "_kv_tokens",
        "_queue_depth",
        "_runs",
        "_run_at",
        "_run_steps_through",
        "queue_area_s",
        "decode_stall_s",
    )

    def __init__(self) -> None:
        # Steps appended one at a time, as columns.
        self._start_s: List[float] = []
        self._end_s: List[float] = []
        self._kind: List[str] = []
        self._decode_batch: List[int] = []
        self._chunk_tokens: List[int] = []
        self._kv_tokens: List[int] = []
        self._queue_depth: List[int] = []
        # Horizon runs, one row each: the row, the log index of its first
        # step, and the steps in runs up to and including it.
        self._runs: List[DecodeRun] = []
        self._run_at: List[int] = []
        self._run_steps_through: List[int] = []
        # Streaming integrals, maintained in append order so they match
        # the equivalent post-hoc sums bit for bit.
        self.queue_area_s: float = 0.0
        self.decode_stall_s: float = 0.0

    # -- construction ---------------------------------------------------
    def append(
        self, start_s: float, end_s: float, kind: str, decode_batch: int,
        chunk_tokens: int, kv_tokens: int, queue_depth: int,
    ) -> None:
        """Record one step and fold it into the running integrals."""
        self._start_s.append(start_s)
        self._end_s.append(end_s)
        self._kind.append(kind)
        self._decode_batch.append(decode_batch)
        self._chunk_tokens.append(chunk_tokens)
        self._kv_tokens.append(kv_tokens)
        self._queue_depth.append(queue_depth)
        if queue_depth:
            self.queue_area_s += queue_depth * (end_s - start_s)
        if decode_batch > 0 and kind in STALL_KINDS:
            self.decode_stall_s += end_s - start_s

    def extend_decode_run(
        self,
        start_s: float,
        segments: Sequence[Tuple[float, int]],
        batch: int,
        kv_tokens: int,
        kv_tokens_last: int,
    ) -> None:
        """Record a run of pure-decode steps as one row.

        ``segments`` lists ``(duration_s, steps)`` in step order; the
        run's clock starts at ``start_s``.  A horizon run only exists
        when nothing is queued, so every step records zero queue depth
        and zero chunk tokens; the final step's ``kv_tokens`` reflects
        reservations released by completions at the end of the run
        (``kv_tokens_last``), matching what per-step execution would
        have reported.  Neither accumulator moves: the queue
        contribution is ``0 * dt`` and ``"decode"`` never stalls.
        """
        segments = tuple((d, c) for d, c in segments if c > 0)
        if not segments:
            return
        through = self._run_steps_through
        before = through[-1] if through else 0
        self._run_at.append(len(self))
        through.append(before + sum(c for _, c in segments))
        self._runs.append(
            (start_s, segments, batch, kv_tokens, kv_tokens_last)
        )

    # -- read API -------------------------------------------------------
    def _columns(self) -> Tuple[list, ...]:
        """The seven single-step columns, in :class:`StepEvent` order."""
        return (
            self._start_s, self._end_s, self._kind, self._decode_batch,
            self._chunk_tokens, self._kv_tokens, self._queue_depth,
        )

    @staticmethod
    def _run_columns(run: DecodeRun) -> Tuple[list, ...]:
        """One run row expanded into the seven per-step columns."""
        start_s, segments, batch, kv_tokens, kv_tokens_last = run
        times = run_clock(start_s, segments)
        n = len(times) - 1
        return (
            times[:-1].tolist(), times[1:].tolist(), ["decode"] * n,
            [batch] * n, [0] * n,
            [kv_tokens] * (n - 1) + [kv_tokens_last], [0] * n,
        )

    def _expanded(self) -> Tuple[list, ...]:
        """Every step, in log order, as seven per-step columns."""
        columns = self._columns()
        if not self._runs:
            return columns
        out: Tuple[list, ...] = tuple([] for _ in columns)
        taken = 0
        steps_before = 0
        for run, at, through in zip(
            self._runs, self._run_at, self._run_steps_through
        ):
            singles = at - steps_before
            for dst, src, extra in zip(out, columns, self._run_columns(run)):
                dst.extend(src[taken:singles])
                dst.extend(extra)
            taken, steps_before = singles, through
        for dst, src in zip(out, columns):
            dst.extend(src[taken:])
        return out

    def __len__(self) -> int:
        through = self._run_steps_through
        return len(self._start_s) + (through[-1] if through else 0)

    def __iter__(self) -> Iterator[StepEvent]:
        return itertools.starmap(StepEvent, zip(*self._expanded()))

    def __getitem__(self, index: int) -> StepEvent:
        i = operator.index(index)  # integer rows only, no slices
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("step event index out of range")
        r = bisect_right(self._run_at, i) - 1
        if r >= 0:
            offset = i - self._run_at[r]
            through = self._run_steps_through[r]
            steps = through - (self._run_steps_through[r - 1] if r else 0)
            if offset < steps:
                columns = self._run_columns(self._runs[r])
                return StepEvent(*(column[offset] for column in columns))
            i -= through
        return StepEvent(*(column[i] for column in self._columns()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepEventLog):
            return NotImplemented
        return self._expanded() == other._expanded()

    def __repr__(self) -> str:
        return f"StepEventLog(n={len(self)})"
