"""Span bookkeeping for the traced run.

The harness records one span around every call it makes into a layer
of the program: name, start, end, the span that caused it, and the
workload it belongs to.  A span's *layer* is the first dotted
component of its name (``engine_vector.run_cycle`` -> ``engine_vector``).
Spans stay in memory while a workload runs and are written as JSONL
when it ends.

A layer's *self time* is the duration of its spans minus the part of
each span that its direct children cover, so nested layers (a
``core.absorb`` inside a ``simulator.run_cycle``) are never counted
twice.
"""

from __future__ import annotations

import json
import statistics
import time
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10


@dataclass(slots=True)
class Span:
    """One timed call into a layer (times are ``perf_counter`` seconds)."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for one workload, in memory."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(
            id=len(self.spans),
            name=name,
            start=0.0,
            end=0.0,
            parent=self._stack[-1] if self._stack else None,
            workload=self.workload,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, function: Callable) -> Callable:
        """*function* with a span named *name* around every call.

        Same bookkeeping as :meth:`span`, written out by hand: these
        wrappers sit on calls of a few microseconds, where a generator
        context manager would cost as much as the call it times.
        """
        spans, stack, workload, clock = self.spans, self._stack, self.workload, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(len(spans), name, 0.0, 0.0, stack[-1] if stack else None, workload)
            spans.append(span)
            stack.append(span.id)
            span.start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    @contextmanager
    def patched(self, targets: Iterable[tuple[object, str, str]]):
        """Wrap public callables for the duration of the block.

        Each target is ``(owner, attribute, span name)``.  This is how
        the harness times calls *into* a layer that another layer
        makes (``BootstrapNode.absorb`` called by the cycle engine)
        without a hook inside the program; the originals are restored
        on exit.
        """
        originals = []
        try:
            for owner, attribute, name in targets:
                original = getattr(owner, attribute)
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(name, original))
            yield
        finally:
            for owner, attribute, original in originals:
                setattr(owner, attribute, original)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Self seconds per layer: each span minus what its children cover.

    Children are clipped to their parent and overlapping children are
    merged first, so a parent's self time is never negative.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[str, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.layer] = result.get(span.layer, 0.0) + span.duration - covered
    return result


def percentile(samples: Sequence[float], percent: float) -> float:
    """Linear-interpolated percentile of *samples* (0 <= percent <= 100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * percent / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def highest_percentile(count: int) -> float:
    """The highest ladder percentile with >= 10 samples beyond it.

    Falls back to the median (50.0) when even the lowest ladder step
    would rest on fewer than ten samples.
    """
    best = 50.0
    for step in PERCENTILE_LADDER:
        if int(count * (100.0 - step) / 100.0 + 1e-9) >= SAMPLES_BEYOND:
            best = step
    return best


def summarize(samples: Sequence[float]) -> dict[str, float]:
    """Median, the highest supported percentile, and the sample count."""
    high = highest_percentile(len(samples))
    return {
        "n": len(samples),
        "p50": statistics.median(samples),
        "phi": percentile(samples, high),
        "phi_percent": high,
    }


def write_jsonl(spans: Sequence[Span], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        for span in spans:
            stream.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def read_jsonl(path: Path) -> list[Span]:
    with open(path, encoding="utf-8") as stream:
        return [Span(**json.loads(line)) for line in stream if line.strip()]
