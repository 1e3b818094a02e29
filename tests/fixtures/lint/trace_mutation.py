"""Fixture for the ``raw-trace-record`` rule's trace-mutation check.

Every line the rule must flag ends in ``# flagged``; every other line is
a shape the rule must leave alone.  A warm launch's trace is its
program's sealed record, shared by every launch of that program, so
code outside the trace, machine and program modules only reads traces.
"""


def bad(ops, trace, record, coord, other):
    label, shared = ops.traces[-1]
    shared.comms.append(record)  # flagged
    trace.computes.extend([record])  # flagged
    trace.barriers.clear()  # flagged
    trace._scopes.insert(0, record)  # flagged
    trace.core_peak_bytes[coord] = 1  # flagged
    trace.core_peak_bytes.update({coord: 2})  # flagged
    trace._colours_per_core[coord].add("p")  # flagged
    trace._colours_per_core.setdefault(coord, set())  # flagged
    trace.peak_memory_bytes = 0  # flagged
    trace.peak_memory_bytes += 1  # flagged
    trace.comms += [record]  # flagged
    trace.comms = []  # flagged
    del trace.computes[0]  # flagged
    other.x, trace.peak_memory_bytes = 1, 2  # flagged


def good(ops, trace, coord):
    total = sum(comm.num_flows for comm in trace.comms)
    peak = max(trace.core_peak_bytes.values(), default=0)
    colours = set(trace._colours_per_core.get(coord, ()))
    colours.add("p")
    copied = list(trace.comms)
    copied.append(None)
    return total, peak, colours, trace.peak_memory_bytes


class OwnFields:
    """A class mutating its own same-named fields is not touching a trace."""

    def __init__(self):
        self.comms = []
        self.peak_memory_bytes = 0

    def note(self, record):
        self.comms.append(record)
        self.peak_memory_bytes += 1
