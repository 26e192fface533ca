"""Shared pieces of the benchmark: span tracer, output checks, round loop.

Spans are recorded by the benchmark around each call it makes into a layer
of revlogic; nothing inside the package is instrumented. A span's layer is
the first dotted part of its name (``core.make_gate.w16`` -> ``core``).
"""
from __future__ import annotations

import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    job: int  # spans caused by one job (a pipeline, a histogram, a verb) share it
    attrs: dict
    start_ns: int
    end_ns: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "job": self.job,
                "attrs": self.attrs, "start_ns": self.start_ns, "end_ns": self.end_ns}


class Tracer:
    """Keeps spans in memory; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, job: bool = False, **attrs) -> Iterator[None]:
        """Time the enclosed call; ``job=True`` starts a new job identifier."""
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        span_id = len(self.spans)
        job_id = span_id if job or parent is None else parent.job
        span = Span(span_id, name, parent.id if parent else None, job_id, attrs,
                    time.perf_counter_ns())
        self.spans.append(span)
        self._open.append(span)
        try:
            yield
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def self_seconds(self) -> dict[int, float]:
        """Span duration minus the time its child spans cover, per span id."""
        covered: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end_ns - s.start_ns
        return {s.id: (s.end_ns - s.start_ns - covered[s.id]) / 1e9 for s in self.spans}

    def per_job(self, name: str, **attrs) -> list[float]:
        """Self seconds of the named spans, summed within each job."""
        own = self.self_seconds()
        totals: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items()):
                totals[s.job] += own[s.id]
        return list(totals.values())

    def median(self, name: str, **attrs) -> float:
        values = self.per_job(name, **attrs)
        if not values:
            raise KeyError(f"no span {name} {attrs}")
        return percentile(values, 50)

    def layer_self_seconds(self) -> dict[str, float]:
        own = self.self_seconds()
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s.layer] += own[s.id]
        return dict(totals)


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile, ``q`` in 0..100."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Checks:
    """Counts output checks; every failure is kept and reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def crashed(self, what: str) -> None:
        """A call raised: the check it fed counts as attempted and failed."""
        traceback.print_exc(file=sys.stderr)
        self.expect(False, f"{what} raised")

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Outcome:
    """What one workload measured, untraced or traced.

    ``units`` of work were done in ``busy_s`` seconds of timed calls;
    ``job_s`` and ``pass_s`` are the two latency populations the workload
    reports (see README.md); ``round_s`` is the wall time of each round.
    """

    checks: Checks = field(default_factory=Checks)
    units: int = 0
    busy_s: float = 0.0
    job_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)


def run_rounds(one_round: Callable[[int], None], outcome: Outcome,
               seconds: float, rounds: int | None,
               between: Callable[[float], None] | None = None) -> None:
    """Closed loop over whole rounds.

    With ``rounds`` given, run exactly that many. Otherwise keep going while
    another round of the last round's length still ends within ``seconds``;
    at least one round always runs.
    ``between``, if given, is called after each round with the share of
    ``seconds`` used so far; the time it takes does not count against them.
    """
    start = time.perf_counter()
    paused = 0.0
    done = 0
    while True:
        t0 = time.perf_counter()
        one_round(done)
        outcome.round_s.append(time.perf_counter() - t0)
        done += 1
        if between is not None:
            t1 = time.perf_counter()
            between((t1 - start - paused) / seconds if seconds else 1.0)
            paused += time.perf_counter() - t1
        if rounds is not None:
            if done >= rounds:
                return
        elif time.perf_counter() - start - paused + outcome.round_s[-1] > seconds:
            return
