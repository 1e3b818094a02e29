"""Tests for the columnar step-event log (repro.serving.events)."""

from __future__ import annotations

import pytest

from repro.serving.events import STALL_KINDS, StepEvent, StepEventLog


def _event(i, kind="decode", batch=2, queue=0):
    return StepEvent(
        start_s=0.01 * i, end_s=0.01 * (i + 1), kind=kind,
        decode_batch=batch, chunk_tokens=64 if kind == "fused" else 0,
        kv_tokens=100 + i, queue_depth=queue,
    )


def _append(log, event):
    log.append(
        event.start_s, event.end_s, event.kind, event.decode_batch,
        event.chunk_tokens, event.kv_tokens, event.queue_depth,
    )


def _filled(n=5):
    log = StepEventLog()
    for i in range(n):
        _append(log, _event(i))
    return log


class TestSequenceApi:
    def test_len_bool_iter(self):
        log = StepEventLog()
        assert len(log) == 0 and not log
        log = _filled(3)
        assert len(log) == 3 and log
        assert [e.kv_tokens for e in log] == [100, 101, 102]

    def test_indexing_roundtrips_events(self):
        log = _filled(4)
        assert log[0] == _event(0)
        assert log[-1] == _event(3)
        with pytest.raises(IndexError):
            log[4]
        with pytest.raises(IndexError):
            log[-5]

    def test_equality_with_logs_and_sequences(self):
        log = _filled(3)
        assert log == _filled(3)
        assert log != _filled(4)
        assert log != object()

    def test_append_takes_fields(self):
        log = StepEventLog()
        log.append(0.5, 0.75, "fused", 3, 64, 900, 2)
        assert log[0] == StepEvent(
            start_s=0.5, end_s=0.75, kind="fused", decode_batch=3,
            chunk_tokens=64, kv_tokens=900, queue_depth=2,
        )
        assert log.queue_area_s == 2 * 0.25


class TestAccumulators:
    def test_streaming_integrals_match_posthoc_sums(self):
        log = StepEventLog()
        events = [
            _event(0, kind="fused", batch=3, queue=2),
            _event(1, kind="prefill", batch=2, queue=1),
            _event(2, kind="decode", batch=4, queue=0),
            _event(3, kind="retry", batch=2, queue=3),
            _event(4, kind="remap", batch=1, queue=0),
            _event(5, kind="prefill", batch=0, queue=2),  # no live streams
        ]
        for e in events:
            _append(log, e)
        queue_area = sum(e.queue_depth * e.duration_s for e in events)
        stall = sum(e.duration_s for e in events
                    if e.decode_batch > 0 and e.kind in STALL_KINDS)
        assert log.queue_area_s == queue_area
        assert log.decode_stall_s == stall
        assert stall > 0

    def test_stall_kinds_cover_the_blocking_steps(self):
        assert STALL_KINDS == {"prefill", "retry", "remap", "degrade"}


def _run_row_and_appends(start_s, segments, batch=3, kv=500, kv_last=420):
    """A run row and the per-step appends it stands for (scalar clock)."""
    row = StepEventLog()
    row.extend_decode_run(start_s, segments, batch=batch, kv_tokens=kv,
                          kv_tokens_last=kv_last)
    loop = StepEventLog()
    n = sum(count for _, count in segments)
    now, i = start_s, 0
    for duration, count in segments:
        for _ in range(count):
            start, now = now, now + duration
            loop.append(start, now, "decode", batch, 0,
                        kv_last if i == n - 1 else kv, 0)
            i += 1
    return row, loop


class TestExtendDecodeRun:
    def test_bulk_extend_equals_per_event_appends(self):
        bulk, loop = _run_row_and_appends(0.0, [(0.1, 3)])
        assert bulk == loop
        assert bulk.queue_area_s == 0.0
        assert bulk.decode_stall_s == 0.0

    def test_single_step_run_reports_released_kv(self):
        log = StepEventLog()
        log.extend_decode_run(0.0, [(0.1, 1)], batch=1, kv_tokens=300,
                              kv_tokens_last=0)
        assert log[0].kv_tokens == 0

    def test_empty_run_is_a_no_op(self):
        log = _filled(2)
        log.extend_decode_run([], [], batch=1, kv_tokens=10, kv_tokens_last=0)
        assert log == _filled(2)


class TestRunLengthRows:
    """A multi-segment run row reads exactly like its per-step appends."""

    SEGMENTS = [(0.013, 4), (0.0171, 5), (0.02, 3)]

    def _logs(self):
        # Single steps before, between and after two run rows.
        row, loop = _filled(2), _filled(2)
        for start in (0.7, 1.9):
            _, steps = _run_row_and_appends(start, self.SEGMENTS)
            row.extend_decode_run(start, self.SEGMENTS, batch=3,
                                  kv_tokens=500, kv_tokens_last=420)
            for event in steps:
                _append(loop, event)
            _append(row, _event(7))
            _append(loop, _event(7))
        return row, loop

    def test_len_is_the_step_count(self):
        row, loop = self._logs()
        assert len(row) == len(loop) == 2 + 2 * (12 + 1)
        assert len(row._runs) == 2

    def test_iteration_matches(self):
        row, loop = self._logs()
        assert list(row) == list(loop)

    def test_indexing_matches_positive_and_negative(self):
        row, loop = self._logs()
        for i in range(-len(loop), len(loop)):
            assert row[i] == loop[i], i
        assert row[-1] == loop[-1] == _event(7)
        with pytest.raises(IndexError):
            row[len(loop)]
        with pytest.raises(IndexError):
            row[-len(loop) - 1]

    def test_equality_matches(self):
        row, loop = self._logs()
        assert row == loop and loop == row
        assert row != _filled(2)

    def test_segment_clocks_are_the_scalar_walk(self):
        row, loop = _run_row_and_appends(0.3, self.SEGMENTS)
        assert [e.end_s for e in row] == [e.end_s for e in loop]
        assert row[-1].kv_tokens == 420 and row[0].kv_tokens == 500
