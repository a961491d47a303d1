"""In-memory span recorder for the traced benchmark run.

Spans are taken from outside the program: a public function is replaced, at
the module attribute through which its caller looks it up, by a wrapper that
records (id, name, start, end, parent). Nothing under src/ is edited, and
restore() puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class SpanRecorder:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.sizes: dict[str, list[int]] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, module, attr: str, name: str, size=None) -> None:
        """Record a span named ``name`` around every call of module.attr.

        ``size``, when given, maps the call's result to a count kept under
        the span name (for example the rows a loader returned).
        """
        original = getattr(module, attr)
        local, ids, record = self._local, self._ids, self.spans.append
        sizes = self.sizes[name]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            sid = next(ids)  # itertools.count is atomic under the GIL
            stack.append(sid)
            start = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                record((sid, name, start, end, parent))
            if size is not None:
                sizes.append(size(result))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take(self) -> tuple[list, dict]:
        """Hand over the spans and sizes recorded so far and start afresh."""
        spans, sizes = list(self.spans), {k: list(v) for k, v in self.sizes.items() if v}
        self.spans.clear()
        for v in self.sizes.values():
            v.clear()
        return spans, sizes


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover (overlapping children counted once)."""
    children = defaultdict(list)
    for sid, _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: summed duration, summed self time and call count."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for sid, name, start, end, _ in spans:
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += end - start
        entry["self_s"] += own[sid]
        entry["calls"] += 1
    return out
