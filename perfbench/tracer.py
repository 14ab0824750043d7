"""Span tracer installed from outside the program.

The tracer replaces module attributes (the names a module looks up at call
time, such as ``tetherpick.optimizer.total_cost``) with wrappers that record
one span per call: name, start, end, parent span and the verb call it belongs
to.  Spans stay in memory and are written out when the run ends.  Nothing in
the program changes; uninstalling restores the original attributes.

Only the process that installed the wrappers records spans.  A forked worker
inherits the wrappers but calls straight through, so its work is not traced.
"""

from __future__ import annotations

import contextlib
import csv
import os
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Records spans for the attributes passed to :meth:`install`."""

    def __init__(self):
        # span index -> (name, parent index or -1, verb index, start, end)
        self.spans: list = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._installed: list = []
        self._verb = -1
        self._pid = os.getpid()

    def install(self, module, attr: str, name: str) -> bool:
        """Wrap ``module.attr``; a name that no longer exists is noted in
        :attr:`missing` and skipped."""
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.add(name)
            return False
        spans, stack, pid = self.spans, self._stack, self._pid

        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, parent, self._verb, start, end)

        setattr(module, attr, traced)
        self._installed.append((module, attr, original))
        return True

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def verb(self, name: str):
        """Root span for one verb call; spans inside it carry its index."""
        index = len(self.spans)
        self.spans.append(None)
        self._verb = index
        self._stack.append(index)
        start = perf_counter()
        try:
            yield index
        finally:
            end = perf_counter()
            self._stack.pop()
            self._verb = -1
            self.spans[index] = (name, -1, index, start, end)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("span", "name", "parent", "verb", "start_s",
                             "end_s"))
            for index, (name, parent, verb, start, end) in \
                    enumerate(self.spans):
                writer.writerow((index, name, parent, verb, repr(start),
                                 repr(end)))


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children = defaultdict(list)
    for index, (_, parent, _, start, end) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, _, _, start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


class Profile:
    """Per-name totals over a list of spans."""

    def __init__(self, spans):
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_total = defaultdict(float)
        self.under = defaultdict(int)  # (name, parent name) -> calls
        for (name, parent, _, start, end), own in zip(spans,
                                                       self_times(spans)):
            self.count[name] += 1
            self.total[name] += end - start
            self.self_total[name] += own
            if parent >= 0:
                self.under[(name, spans[parent][0])] += 1

    def mean(self, name: str):
        """Mean duration per call, or None when the name never ran."""
        calls = self.count.get(name, 0)
        return self.total[name] / calls if calls else None

    def self_mean(self, name: str):
        calls = self.count.get(name, 0)
        return self.self_total[name] / calls if calls else None
