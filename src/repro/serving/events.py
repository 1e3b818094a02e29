"""Structure-of-arrays step-event log with streaming accumulators.

A serving run can take hundreds of thousands of steps, and the metric
rollups need two time-integrals over them (queue area and decode-stall
seconds).  :class:`StepEventLog` stores each step as one row of parallel
columns of Python scalars and folds every row into those integrals *as
it is appended*, in append order, so the running totals are
bit-identical to post-hoc sums over the rows (float addition in the
same order).  Horizon-batched decode runs land through
:meth:`StepEventLog.extend_decode_run`, which bulk-extends the columns
from vectorized timestamps; such steps have zero queue depth and a
non-stall kind by construction, so the accumulators are untouched
(adding ``0.0`` is exact).

Rows are written as fields, never as objects; a :class:`StepEvent` is
built only when a reader indexes or iterates the log.  The read API is
``len``, ``bool``, iteration, integer indexing, and equality with
another log.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

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


class StepEventLog:
    """Columnar step-event log with running metric accumulators."""

    __slots__ = (
        "start_s",
        "end_s",
        "kind",
        "decode_batch",
        "chunk_tokens",
        "kv_tokens",
        "queue_depth",
        "queue_area_s",
        "decode_stall_s",
    )

    def __init__(self) -> None:
        self.start_s: List[float] = []
        self.end_s: List[float] = []
        self.kind: List[str] = []
        self.decode_batch: List[int] = []
        self.chunk_tokens: List[int] = []
        self.kv_tokens: List[int] = []
        self.queue_depth: List[int] = []
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
        self.start_s.append(start_s)
        self.end_s.append(end_s)
        self.kind.append(kind)
        self.decode_batch.append(decode_batch)
        self.chunk_tokens.append(chunk_tokens)
        self.kv_tokens.append(kv_tokens)
        self.queue_depth.append(queue_depth)
        if queue_depth:
            self.queue_area_s += queue_depth * (end_s - start_s)
        if decode_batch > 0 and kind in STALL_KINDS:
            self.decode_stall_s += end_s - start_s

    def extend_decode_run(
        self,
        starts: Sequence[float],
        ends: Sequence[float],
        batch: int,
        kv_tokens: int,
        kv_tokens_last: int,
    ) -> None:
        """Bulk-append ``len(starts)`` pure-decode steps.

        A horizon run only exists when nothing is queued, so every step
        records zero queue depth and zero chunk tokens; the final step's
        ``kv_tokens`` reflects reservations released by completions at
        the end of the run (``kv_tokens_last``), matching what per-step
        execution would have reported.  Neither accumulator moves: the
        queue contribution is ``0 * dt`` and ``"decode"`` never stalls.
        """
        n = len(starts)
        if n == 0:
            return
        self.start_s.extend(starts)
        self.end_s.extend(ends)
        self.kind.extend(["decode"] * n)
        self.decode_batch.extend([batch] * n)
        self.chunk_tokens.extend([0] * n)
        if n > 1:
            self.kv_tokens.extend([kv_tokens] * (n - 1))
        self.kv_tokens.append(kv_tokens_last)
        self.queue_depth.extend([0] * n)

    # -- read API -------------------------------------------------------
    def _columns(self) -> Tuple[list, ...]:
        """The seven row columns, in :class:`StepEvent` field order."""
        return (
            self.start_s, self.end_s, self.kind, self.decode_batch,
            self.chunk_tokens, self.kv_tokens, self.queue_depth,
        )

    def __len__(self) -> int:
        return len(self.start_s)

    def __bool__(self) -> bool:
        return bool(self.start_s)

    def __iter__(self) -> Iterator[StepEvent]:
        return itertools.starmap(StepEvent, zip(*self._columns()))

    def __getitem__(self, index: int) -> StepEvent:
        i = operator.index(index)  # integer rows only, no slices
        return StepEvent(*(column[i] for column in self._columns()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepEventLog):
            return NotImplemented
        return self._columns() == other._columns()

    def __repr__(self) -> str:
        return f"StepEventLog(n={len(self)})"
