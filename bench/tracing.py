"""In-memory span tracer that wraps ldpmin's functions from outside the package.

The benchmark never edits ``src/``: the traced run replaces a module
attribute (``harness.run_private_min``, ``net.user_respond``, ...) with a
wrapper that records a span and calls the original, and puts the original
back when the operation ends.  The attribute patched is always the name the
*calling* module looks up at call time, because ``from x import f`` binds a
second name that patching ``x.f`` would miss.

A span carries a name, start and end (``time.perf_counter_ns``, which is
CLOCK_MONOTONIC on Linux and so comparable across processes of one host), the
id of the span that caused it, the rep or session it belongs to, and a work
size (values generated, bits sanitized; 0 where no size applies).  Spans
stay in memory until the run ends; nothing is written while measuring.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    span_id: int
    name: str
    start: int
    end: int
    parent: int | None
    group: int
    size: int

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Collects spans; ``group`` is the current rep or session id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.group = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, parent: int | None) -> tuple[list[int], int, int | None]:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        return stack, span_id, parent

    @contextmanager
    def span(self, name: str, size: int = 0, parent: int | None = None):
        """Record one span; ``parent`` overrides the caller on this thread's stack.

        Worker threads start with an empty stack, so a span opened there names
        its cause explicitly.
        """
        stack, span_id, parent = self._open(parent)
        group = self.group
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, group, size))

    def wrap(self, owner, attr: str, name: str, size=None, new_group: bool = False) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`.

        ``size(args, kwargs)`` gives the span's work size; ``new_group`` starts
        a new rep before the call (the harness derives one stream per rep).
        The wrapper inlines :meth:`span`: it runs on every call of a hot
        function, where a generator-based context manager adds about 70%.
        """
        original = getattr(owner, attr)
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if new_group:
                self.group += 1
            group = self.group
            work = size(args, kwargs) if size else 0
            stack, span_id, parent = self._open(None)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, group, work))

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def adopt(self, rows, parent: int, group: int) -> None:
        """Add spans recorded in another process under ``parent``.

        ``rows`` are (id, name, start, end, parent, size) with ids local to
        the other process; they are renumbered here.
        """
        ids = {row[0]: next(self._ids) for row in rows}
        for old_id, name, start, end, old_parent, size in rows:
            new_parent = parent if old_parent is None else ids[old_parent]
            self.spans.append(Span(ids[old_id], name, start, end, new_parent, group, size))


def covered(intervals) -> int:
    """Total length of the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.span_id]]
        out[s.span_id] = s.duration - covered((a, b) for a, b in kids if b > a)
    return out


class LayerTotals(NamedTuple):
    calls: int
    total_ns: int
    self_ns: int
    size: int


def layer_totals(spans) -> dict[str, LayerTotals]:
    """Per span name: calls, summed duration, summed self time, summed size."""
    own = self_times(spans)
    acc = defaultdict(lambda: [0, 0, 0, 0])
    for s in spans:
        row = acc[s.name]
        row[0] += 1
        row[1] += s.duration
        row[2] += own[s.span_id]
        row[3] += s.size
    return {name: LayerTotals(*row) for name, row in acc.items()}
