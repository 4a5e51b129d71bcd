"""In-memory span recorder that wraps functions from outside the program.

A span is (bucket, start, end, parent index). Spans nest through a single
call stack, so the tracer supports one thread at a time; the benchmark
runs the single-threaded ``round`` scheduler. A bucket's self time is the
summed duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.kept: dict[str, object] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def call(self, bucket: str, fn, *args, **kwargs):
        """Run fn inside a span named bucket."""
        idx = len(self.spans)
        self.spans.append([bucket, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def wrap(self, owner, attr: str, bucket: str, counters=None, keep: bool = False) -> None:
        """Rebind owner.attr to a spanned version of itself.

        counters maps a count name to f(args, result) -> int, added to
        self.counts after each call; keep stores the last result in
        self.kept[bucket]. A classmethod stays a classmethod.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        counters = counters or {}

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            result = self.call(bucket, fn, *args, **kwargs)
            for name, count in counters.items():
                self.counts[name] += count(args, result)
            if keep:
                self.kept[bucket] = result
            return result

        setattr(owner, attr, classmethod(spanned) if is_classmethod else spanned)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, float]:
        """Summed span duration per bucket, children included."""
        out: Counter = Counter()
        for bucket, start, end, _ in self.spans:
            out[bucket] += end - start
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Self time per bucket: span durations minus their children's."""
        out: Counter = Counter()
        for bucket, start, end, parent in self.spans:
            out[bucket] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def first_start(self, buckets) -> float | None:
        starts = [s[1] for s in self.spans if s[0] in buckets]
        return min(starts) if starts else None

    def dump(self, path) -> None:
        """Write the spans as JSON: [bucket, start, end, parent] rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
