"""Serving state stays bounded as generations get longer.

A pure-decode horizon run is one event-log row with one segment per
context bucket, its clock is planned one bucket at a time, and the
watchdog baseline counts distinct durations instead of keeping every
step.  So a :class:`ServeEngine`'s peak traced memory must not grow with
the number of decode steps: 4x longer outputs, same peak.
"""

from __future__ import annotations

import tracemalloc

from repro.core.device_presets import get_device
from repro.llm.config import get_model
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
