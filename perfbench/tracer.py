"""Outside-in instrumentation of the digrl package.

Nothing here edits the package. ``Patches`` replaces an attribute of a module
or class with a wrapper and puts the original back on exit. A wrapper has to
sit at the name its caller looks up: ``sensor.observe`` calls the ``fps``
bound in ``digrl.sensor``, so patching ``digrl.geometry.fps`` would see none
of those calls.

``Tracer`` records one span per wrapped call (name, start, end, parent) in
memory and reduces them to per-layer metrics after the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

_MISSING = object()


class Patches:
    """Context manager that installs wrappers and restores every original."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)``."""
        saved = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, saved))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer:
    """Spans of wrapped calls, kept in memory until the run ends.

    A span is ``(name, start, end, parent)`` where ``parent`` is the index of
    the enclosing span or -1. The process is single threaded, so children
    never overlap and a span's self time is its duration minus the sum of
    its children's durations.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, patches: Patches, owner, attr: str, name: str, observe=None) -> None:
        """Trace ``owner.attr`` as layer ``name``.

        ``observe(tracer, args, kwargs, result)`` runs after a call returns,
        outside the span, to update counters such as points in and out.
        """
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                parent = tracer._stack[-1] if tracer._stack else -1
                index = len(tracer.spans)
                tracer.spans.append(None)
                tracer._stack.append(index)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans[index] = (name, start, end, parent)
                if observe is not None:
                    observe(tracer, args, kwargs, result)
                return result

            return wrapper

        patches.wrap(owner, attr, make)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms, median ms per call and self ms."""
        durations: dict[str, list[float]] = defaultdict(list)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            durations[name].append(end - start)
            self_time[name] += end - start - child_time[i]
        stats = {}
        for name, ds in durations.items():
            ds.sort()
            mid = len(ds) // 2
            p50 = ds[mid] if len(ds) % 2 else 0.5 * (ds[mid - 1] + ds[mid])
            stats[name] = {
                "calls": len(ds),
                "ms": 1e3 * sum(ds),
                "ms_p50": 1e3 * p50,
                "self_ms": 1e3 * self_time[name],
            }
        return stats

    def write(self, path) -> None:
        """Write every span as one JSON list ``[name, start, end, parent]``."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
