"""In-memory spans around effc's public functions, installed from outside.

`Tracer.wrap` replaces a module or class attribute with a wrapper that opens
a span (name, start, end, parent, program) around each call.  A call made
while the innermost open span already has the same name is recursion inside
one layer call (`erase_comp` calling itself through `erase_value`, say): it
runs unwrapped, so it neither opens a span nor counts as a call, and the
outer span covers it.  A call into another layer opens a child span, so self
times add up: a span's self time is its duration minus its children's.

Span times are the thread's CPU time, the clock of the benchmark's other
times.  Spans stay in memory until `dump` writes them out.  `restore` puts
every original attribute back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, PROGRAM = range(5)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.program = None
        self._originals: list = []

    # -- installing ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Trace calls of `owner.attr` as spans called `name`.

        `on_result(counts, result)` runs after the span closes, so whatever it
        counts is not charged to the layer.
        """
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, calls, counts = self.spans, self.stack, self.calls, self.counts
        clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            calls[name] += 1
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.program]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        self._install(owner, attr, fn, traced)

    def hook(self, owner, attr: str, on_call) -> None:
        """Call `on_call(counts, args, result)` after each call; no span."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(counts, args, result)
            return result

        self._install(owner, attr, fn, hooked)

    def _install(self, owner, attr, original, replacement) -> None:
        self._originals.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- recording -------------------------------------------------------------

    @contextmanager
    def root(self, name: str, program):
        """A span opened by the benchmark itself, around one operation."""
        self.program = program
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, program]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        rec[START] = time.thread_time()
        try:
            yield
        finally:
            rec[END] = time.thread_time()
            self.stack.pop()

    # -- reading -------------------------------------------------------------

    def self_times(self, first: int = 0) -> dict:
        """Summed self time per span name, over the spans from index `first` on."""
        child = [0.0] * len(self.spans)
        for rec in self.spans[first:]:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict = defaultdict(float)
        for i in range(first, len(self.spans)):
            rec = self.spans[i]
            out[rec[NAME]] += rec[END] - rec[START] - child[i]
        return dict(out)

    def dump(self, path: str, t0: float) -> None:
        """Write the spans as JSON rows [name, start, end, parent, program], times from t0."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                [[r[NAME], round(r[START] - t0, 7), round(r[END] - t0, 7), r[PARENT], r[PROGRAM]] for r in self.spans],
                f,
                separators=(",", ":"),
            )
