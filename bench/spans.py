"""In-memory span recorder and the wrappers that put spans on vbpp's layer
boundaries from the outside, without editing the package.

A span is (name, start, end, parent, info).  Spans nest through a stack, so
the parent of a span is whichever wrapped call was running when it began.
A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    info: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered_length(children.get(i, []), s.start, s.end)
            for i, s in enumerate(spans)]


class Recorder:
    """Collects spans from wrapped callables; single-threaded by design,
    since every vbpp command runs its layers on the calling thread."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, info=None):
        """Wrap ``fn`` so each call records a span.

        ``info(args, kwargs, result)`` may return a dict of counts to attach
        to the span; it runs after the span has ended.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else None
            span = Span(name=name, start=recorder._clock(), parent=parent)
            recorder.spans.append(span)
            recorder._stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = recorder._clock()
                recorder._stack.pop()
                if info is not None and span.error is None:
                    span.info = info(args, kwargs, result)

        return wrapper

    def patch(self, owner, attr: str, name: str, info=None, package: str = "vbpp"):
        """Replace ``owner.attr`` with a traced wrapper everywhere it is bound.

        Modules that did ``from x import f`` hold their own reference to
        ``f``, so every module of ``package`` whose namespace binds the same
        object gets the wrapper too.
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, info)
        targets = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original and (mod, key) not in targets:
                    targets.append((mod, key))
        for tgt, key in targets:
            self._patched.append((tgt, key, original))
            setattr(tgt, key, wrapper)
        return wrapper

    def restore(self) -> None:
        """Put every original callable back, newest patch first."""
        for tgt, key, original in reversed(self._patched):
            setattr(tgt, key, original)
        self._patched.clear()
