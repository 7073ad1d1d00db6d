"""In-memory spans around calls into chromint's layers.

A span records a name, its start and end, the span that was open when it
started (its parent) and a few counts taken from the call's arguments and
result.  Spans stay in memory until the run ends.  A layer's self time is
the duration of its spans minus the time covered by their child spans.

Calls are traced from outside the package: `Tracer.patched` replaces a
function under the module attribute its caller looks it up by, and puts the
original back afterwards.  Nothing inside chromint is edited.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), parent)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_s += record.end - record.start

    def wrap(self, name: str, fn, count=None):
        """fn inside a span; count(args, kwargs, result) returns the span's
        counts and runs after the span has closed, so it adds no time to it."""
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record.counts.update(count(args, kwargs, result))
            return result
        return traced

    @contextmanager
    def patched(self, targets):
        """Trace each (module, attribute, span name, count) target.

        An attribute the module no longer has is skipped: the workloads'
        call-count checks report a layer whose calls went untraced.
        """
        saved = []
        try:
            for module, attr, name, count in targets:
                if not hasattr(module, attr):
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return dict(out)

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.named(name))

    def total(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.named(name))
