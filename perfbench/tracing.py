"""In-memory spans around calls into ausokit's public functions.

A span records a name, its start and end on the perf_counter clock, and the
span that was open when it started (its parent).  Spans stay in memory until
the benchmark ends.  Wrappers replace every module attribute that refers to
a function, so a call is traced however the caller looks the function up,
and the program's files are not modified.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; `wrap` installs traced wrappers, `restore` removes them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), parent=parent, attrs=attrs)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, modules, home, attr: str, name) -> None:
        """Trace every call of the function `home.attr`, through any
        attribute of `modules` that refers to it.

        `name` is a span name, or a function of (args, kwargs) returning
        (span name, attrs).  Raises AttributeError if `home` has no `attr`,
        so a moved or renamed function is reported instead of leaving its
        metric at zero.
        """
        original = getattr(home, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name, attrs = name(args, kwargs) if callable(name) else (name, {})
            with self.span(span_name, **attrs):
                return original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
                    self._installed.append((module, key, original))

    def restore(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def total(self, name: str) -> float:
        """Summed duration of the named spans, counting a span nested in
        another of the same name once."""
        return sum(s.duration for s in self.spans
                   if s.name == name and not self._inside(s, name))

    def _inside(self, span: Span, name: str) -> bool:
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False

    def total_self(self, name: str) -> float:
        """Summed self time of the named spans: each span's duration minus
        the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return sum(s.duration - covered[i] for i, s in enumerate(self.spans)
                   if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def attr_sum(self, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in self.spans)

    def to_json(self, origin: float) -> list[dict]:
        return [{"name": s.name, "start": s.start - origin, "end": s.end - origin,
                 "parent": s.parent, **s.attrs} for s in self.spans]
