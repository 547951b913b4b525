"""In-memory spans around relaymarket's own calls.

While patched() is active, each traced function, such as "dda.step", is
replaced on its module by a wrapper that calls the original inside a span.
relaymarket reaches its layers through module attributes (bench calls
`dda.run`, dda.run calls `step`, enumeration calls `is_stable`), so the
package's own code runs unchanged and its calls are the ones traced.

A span is (name, start, end, parent, trial): start and end come from
time.perf_counter, parent is the index of the enclosing span or -1, and
trial is the index of the trial the span belongs to. Spans stay in memory
while the benchmark runs and are written out once at the end.
"""

from __future__ import annotations

import csv
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "relaymarket."


class Tracer:
    def __init__(self, names, keep=()):
        """Trace the functions named "module.function"; keep the return
        values of those in `keep` for the current trial in self.returns."""
        self.spans = []
        self.trial = -1
        self.returns = defaultdict(list)
        self._open = []
        self._targets = []
        for name in names:
            module_name, attr = name.split(".")
            module = importlib.import_module(PACKAGE + module_name)
            fn = getattr(module, attr)
            self._targets.append((module, attr, fn, self._wrap(name, fn, name in keep)))

    def _wrap(self, name, fn, keep):
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if keep:
                self.returns[name].append(result)
            return result
        return traced

    def begin(self, trial):
        self.trial = trial
        self.returns = defaultdict(list)

    @contextmanager
    def patched(self):
        for module, attr, _, wrapper in self._targets:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, fn, _ in self._targets:
                setattr(module, attr, fn)

    def span(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.trial)

    def self_times(self):
        """(name, trial, self seconds) per span: its duration minus the
        durations of its direct children, which never overlap because the
        benchmark runs on one thread."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(name, trial, end - start - c)
                for (name, start, end, _, trial), c in zip(self.spans, covered)]

    def write(self, path):
        """Write the spans as CSV, times in microseconds from the first start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fp:
            out = csv.writer(fp, lineterminator="\n")
            out.writerow(("name", "start_us", "end_us", "parent", "trial"))
            for name, start, end, parent, trial in self.spans:
                out.writerow((name, "%.3f" % ((start - origin) * 1e6),
                              "%.3f" % ((end - origin) * 1e6), parent, trial))
