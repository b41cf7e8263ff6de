"""In-memory spans and work counters for the traced benchmark run.

Spans are recorded from the benchmark's own code around calls into the
xbarsim modules; nothing inside the package is edited.  Work counters are
taken by wrapping a few public methods for the duration of one traced op
and restoring them afterwards, so the untraced calls never see a wrapper.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Spans as (name, start, end, parent index, op id); -1 marks a root."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = None
        self._stack = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_seconds(self, name: str, weights: dict) -> float:
        """Self time of the spans called ``name``, each times its op's weight;
        spans of ops without a weight are left out."""
        return sum(t * weights[op] for (n, _, _, _, op), t
                   in zip(self.spans, self.self_times())
                   if n == name and op in weights)

    def durations(self, name: str, weights: dict) -> list:
        """Durations of the spans called ``name``, each times its op's weight."""
        return [(end - start) * weights[op] for n, start, end, _, op in self.spans
                if n == name and op in weights]

    @contextmanager
    def counting(self, targets):
        """Count calls to ``(owner, attribute, counter)`` targets while open.

        A target the program no longer has is skipped; its counter reads 0.
        """
        saved = []
        for owner, attr, key in targets:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, self._counted(original, key))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def write(self, path):
        """Write every span with its derived self time, plus the counters."""
        rows = [{"name": n, "start": s, "end": e, "parent": p, "op": op, "self": t}
                for (n, s, e, p, op), t in zip(self.spans, self.self_times())]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)
            fh.write("\n")
