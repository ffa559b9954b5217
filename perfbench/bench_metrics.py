"""Summary statistics, step-gap pairing and an in-memory span recorder.

Pure standard library, so the helpers are testable without trajkit.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import threading
import time
from typing import Iterable, NamedTuple, Optional, Sequence

#: The tail percentile is the highest one with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


class Tail(NamedTuple):
    percentile: float  # 0-100; 100 means "max" (too few samples for the rule)
    value: float
    beyond: int  # samples strictly above the reported rank
    n: int


def median(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail(values: Sequence[float], min_beyond: int = TAIL_MIN_BEYOND) -> Tail:
    """Highest nearest-rank percentile with at least ``min_beyond`` samples above it.

    Rank ``k`` (1-based) of ``n`` sorted samples is percentile ``100 k / n``
    and has ``n - k`` samples beyond it, so the answer is rank ``n - min_beyond``.
    With ``n <= min_beyond`` no percentile qualifies; the maximum is returned
    with percentile 100 and zero samples beyond, so the caller can say so.
    """
    n = len(values)
    if n == 0:
        return Tail(100.0, 0.0, 0, 0)
    ordered = sorted(values)
    k = n - min_beyond
    if k < 1:
        return Tail(100.0, float(ordered[-1]), 0, n)
    return Tail(100.0 * k / n, float(ordered[k - 1]), n - k, n)


class StubEvent(NamedTuple):
    """One request as the endpoint saw it."""

    phase: str
    episode: str
    step: int
    arrival: float
    reply: float
    status: int


def step_gaps(events: Iterable[StubEvent]) -> list[float]:
    """Client-side time per step, in seconds, paired per (phase, episode).

    The gap for step ``i + 1`` runs from the successful reply to step ``i``
    to the first arrival of step ``i + 1``. The first step of an episode has
    no predecessor and yields nothing; retried attempts of a step count only
    through its first arrival and its successful reply. Episodes that run
    concurrently are kept apart by their id, so interleaving does not matter.
    """
    first_arrival: dict[tuple[str, str, int], float] = {}
    ok_reply: dict[tuple[str, str, int], float] = {}
    for ev in events:
        key = (ev.phase, ev.episode, ev.step)
        if key not in first_arrival or ev.arrival < first_arrival[key]:
            first_arrival[key] = ev.arrival
        if ev.status == 200:
            ok_reply[key] = ev.reply
    gaps = []
    for (phase, episode, step), arrival in first_arrival.items():
        prev = ok_reply.get((phase, episode, step - 1))
        if step > 0 and prev is not None:
            gaps.append(arrival - prev)
    return gaps


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    trace: Optional[str]
    name: str
    start: float
    end: float


class Tracer:
    """Records spans in memory; ``dump`` writes them out once, at the end.

    A span's parent is the innermost open span of the same thread. Spans of
    one request share the ``trace`` id the caller passes (a step key).
    ``list.append`` and ``next`` on a counter are single bytecode-level
    operations, so threads may record concurrently without a lock.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def span(self, name: str, trace: Optional[str] = None) -> "_OpenSpan":
        return _OpenSpan(self, name, trace)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s._asdict() for s in self.spans], fh)


class _OpenSpan:
    __slots__ = ("tracer", "name", "trace", "id", "parent", "start", "stack")

    def __init__(self, tracer: Tracer, name: str, trace: Optional[str]) -> None:
        self.tracer, self.name, self.trace = tracer, name, trace

    def __enter__(self) -> None:
        local = self.tracer._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        self.stack = stack
        self.id = next(self.tracer._ids)
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.tracer.spans.append(Span(self.id, self.parent, self.trace, self.name,
                                      self.start, end))
