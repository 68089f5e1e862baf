"""Spans recorded around calls into the program's modules, from outside.

The package's modules import each other's functions by name
(``from .rulebase import build_rulebase``), so a call is intercepted by
replacing the attribute on the *calling* module: wrapping
``evaluation.build_rulebase`` times the calls that ``train_and_score``
makes, while ``rulebase.build_rulebase`` stays untouched. ``Tracer.wrap``
does that replacement and ``Tracer.restore`` undoes it.

Each span holds a name, start, end, the index of its parent span and an
operation id. Self time is a span's duration minus the part of it that
its children cover. With ``memory=True`` the wrappers also track the
tracemalloc peak of each span without disturbing the peak of the spans
around it.
"""
from __future__ import annotations

import functools
import json
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    op: int


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Sum over spans of each name of duration minus child coverage.

    Children are clipped to their parent's interval, and overlapping
    children (calls from worker threads) are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(i, ())]
        kids = [(a, b) for a, b in kids if b > a]
        out[s.name] += (s.end - s.start) - covered(kids)
    return dict(out)


class PeakStack:
    """Nested tracemalloc peaks from one global peak counter.

    tracemalloc keeps a single peak, so a frame that resets it would lose
    the peak of the frame around it. On entry the global peak so far is
    credited to the enclosing frame before the reset; on exit a frame's
    running maximum is handed to its parent. Each frame's result is its
    highest traced size minus the traced size when it was entered.
    """

    def __init__(self):
        self._frames: list[list[int]] = []

    def push(self) -> None:
        cur, peak = tracemalloc.get_traced_memory()
        if self._frames:
            top = self._frames[-1]
            top[1] = max(top[1], peak)
        tracemalloc.reset_peak()
        self._frames.append([cur, cur])

    def pop(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        base, high = self._frames.pop()
        high = max(high, peak)
        if self._frames:
            parent = self._frames[-1]
            parent[1] = max(parent[1], high)
        tracemalloc.reset_peak()
        return high - base


class Tracer:
    """Span recorder that wraps module attributes; single use, then restore()."""

    def __init__(self, memory: bool = False, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, int] = defaultdict(int)
        self.threads: dict[str, set[int]] = defaultdict(set)
        self.enabled = False
        self.op = 0
        self.memory = memory
        self.peak_stack = PeakStack()
        self._clock = clock
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` (a module attribute or dict entry) with a
        span-recording wrapper. ``count(tracer, args, result)`` may add
        work counts after each successful call."""
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            span = Span(name, 0.0, None, stack[-1] if stack else None, tracer.op)
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            tracer.threads[name].add(threading.get_ident())
            if tracer.memory:
                tracer.peak_stack.push()
            span.start = tracer._clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = tracer._clock()
                if tracer.memory:
                    tracer.peaks[name] = max(tracer.peaks[name], tracer.peak_stack.pop())
                stack.pop()
            if count is not None:
                count(tracer, args, result)
            return result

        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def root_time(self) -> float:
        """Summed duration of spans without a parent."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")
