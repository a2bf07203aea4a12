"""The benchmark's clock, and spans around its calls into p3ap.

A span is (name, start, end, parent index, op id).  ``Tracer`` records one
span per ``call`` or ``span`` block and keeps them in memory; ``NullTracer``
has the same interface and records nothing, so the untraced run pays one
extra Python call per public call.
"""

from __future__ import annotations

import json
import resource
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


def cpu_now() -> float:
    """CPU seconds used by this process and its waited-for children.

    The benchmark times ops and spans with this clock, not wall time.  On a
    virtual machine whose host takes CPU time away (steal), the wall time of
    the same single-threaded op varied by up to 2x from one minute to the
    next, while its CPU time stayed within a few percent.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self._stack = []
        self.op = None  # id stamped on new spans; None during set-up

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, cpu_now(), None, self._stack[-1] if self._stack else None, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = cpu_now()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self):
        """Per span index: its duration minus the time its children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def by_op(self):
        """{op id: {span name: summed self time}}; set-up spans have op None."""
        own = self.self_times()
        out = defaultdict(lambda: defaultdict(float))
        for (name, _, _, _, op), t in zip(self.spans, own):
            out[op][name] += t
        return out

    def durations(self, name: str):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def children_time(self, idx: int) -> float:
        """Summed duration of the direct children of span `idx`."""
        return sum(e - s for _, s, e, parent, _ in self.spans if parent == idx)

    def dump(self, path):
        own = self.self_times()
        totals = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            totals[name] += t
        payload = {
            "clock": "spans.cpu_now, CPU seconds of the process and its children",
            "fields": ["name", "start", "end", "parent", "op", "self"],
            "spans": [s + [t] for s, t in zip(self.spans, own)],
            "self_time_by_name": dict(sorted(totals.items())),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
