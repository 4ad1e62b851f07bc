"""Event-driven simulation core.

A minimal, allocation-light event queue: entries are ``(time, seq,
kind, payload)`` tuples on a binary heap. Cancellation uses lazy
invalidation — callers attach an incarnation counter to their payloads
and drop stale pops — which keeps the hot loop free of bookkeeping.

The batched drain (:meth:`EventQueue.pop_batch`) pops every event
sharing the earliest timestamp in one call. Because :meth:`push`
rejects past times and the tie-break sequence only grows, any event
pushed *while a batch is being processed* sorts strictly after the
whole batch — so interleaving ``pop_batch`` with pushes preserves the
exact global ``(time, seq)`` processing order of one-at-a-time pops.

The engine's Python loop (:mod:`repro.sim.soa`) drains a timestamp per
:meth:`~EventQueue.pop_batch` call; the scalar oracle the tests hold it
to (``tests/oracles.py``) pops one event at a time, from a subclass
that adds ``pop``.
"""

from __future__ import annotations

import heapq
import math
from typing import Any

__all__ = ["EventQueue"]

#: Event kinds of the simulator's event queue. ``ARRIVAL`` is
#: reserved (arrivals are merged from the pre-sorted request stream,
#: not queued); the rest appear as ``kind`` values on queue entries.
ARRIVAL, COMPLETE, TICK, MACHINE_DOWN, MACHINE_UP = 0, 1, 2, 3, 4


class EventQueue:
    """Time-ordered event queue with a stable tie-break sequence."""

    __slots__ = ("_heap", "_seq", "_time")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Any]] = []
        self._seq = 0
        self._time = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, kind: int, payload: Any = None) -> None:
        """Schedule an event. Events at equal times pop in push order.

        Non-finite times (NaN, +/-inf) are rejected: NaN compares false
        against everything, which would silently corrupt the heap's
        ordering invariant rather than fail loudly.
        """
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time!r}")
        if time < self._time:
            raise ValueError(
                f"cannot schedule into the past: {time} < now={self._time}"
            )
        heapq.heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1

    def pop_batch(self) -> list[tuple[float, int, Any]]:
        """Pop every event sharing the earliest timestamp, in push order.

        Returns ``(time, kind, payload)`` tuples in ``(time, seq)``
        order and moves the queue's clock to their time, so a later
        :meth:`push` may not schedule before it. One call per timestamp
        window keeps the simulator's hot loop free of per-event
        peek/compare overhead.
        """
        heap = self._heap
        time, _seq, kind, payload = heapq.heappop(heap)
        self._time = time
        batch = [(time, kind, payload)]
        while heap and heap[0][0] == time:
            _t, _s, kind, payload = heapq.heappop(heap)
            batch.append((time, kind, payload))
        return batch

    def peek_time(self) -> float | None:
        """Time of the next event, or None when empty."""
        return self._heap[0][0] if self._heap else None
