"""The deterministic event queue at the heart of the DES.

A Nessi-style scheduler: a binary heap over ``(time, priority, seq,
payload)`` tuples. ``seq`` is a monotone insertion counter, so the
heap order is total and insertion order is the *last-resort*
tie-break — two events at the same time and priority pop in the order
they were pushed, never in an order the heap's internal layout happens
to produce.

Tie-breaking law (the part that makes the DES replay-compatible):
events are popped in *eps-clusters*. Starts that differ only by float
rounding must execute in the same order on every platform, so the
queue groups pending times with the anchored-run clustering of
:func:`repro.utils.mathutils.eps_cluster_ids` — the exact rule the
table-replay simulator uses for its start ordering — and orders each
cluster by ``(priority, seq)``. Within one cluster, priority therefore
beats raw time; across clusters, time wins.

Besides the heap, a queue may own a *stream*: events known before the
run starts, presorted, and all of the lowest urgency (a priority
higher than any pushed event's). The stream never enters the heap.
Each cluster takes the heap events within ``eps`` of the anchor and
then the run of stream events within ``eps`` from a cursor — the
order a plain heap fed the stream first would produce, since those
events sort after every pushed event of their cluster and among
themselves by position.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Sequence
from operator import itemgetter
from typing import Any

from repro.utils.mathutils import TIME_EPS

#: One scheduled event: ``(time, priority, seq, payload)``.
QueuedEvent = tuple[float, int, int, Any]

_URGENCY = itemgetter(1, 2)


class EventQueue:
    """Deterministic priority queue of timed events.

    ``push`` is O(log n); ``pop_cluster`` removes and returns the next
    anchored eps-cluster of events, ordered by ``(priority, seq)``.
    The clustering is *anchored*: a cluster holds the run of pending
    times within ``eps`` (``TIME_EPS``) of its earliest member, so no
    cluster is ever wider than ``eps`` (chained clustering could merge
    arbitrarily long runs of eps-spaced events).

    ``stream`` (see the module docstring) is shared, never copied or
    modified: a caller can hand the same presorted tuple to one queue
    per run.
    """

    def __init__(self, stream: Sequence[QueuedEvent] = ()) -> None:
        self._heap: list[QueuedEvent] = []
        self._seq = itertools.count()
        self._stream = stream
        self._cursor = 0

    def __bool__(self) -> bool:
        return bool(self._heap) or self._cursor < len(self._stream)

    def push(self, time: float, priority: int, payload: Any) -> int:
        """Schedule one event; returns its monotone sequence number."""
        seq = next(self._seq)
        heapq.heappush(self._heap, (time, priority, seq, payload))
        return seq

    def pop_cluster(self) -> list[QueuedEvent]:
        """Remove and return the next anchored eps-cluster.

        The anchor is the earliest pending time, on the heap or at the
        stream cursor. Heap and stream both yield nondecreasing times,
        so "everything within ``eps`` of the anchor" is a run of heap
        pops plus a run of stream events — exactly the anchored group
        :func:`~repro.utils.mathutils.eps_cluster_ids` would assign.
        Heap events come first, ordered by ``(priority, seq)``
        (priority beats sub-eps time jitter, insertion order breaks the
        remaining ties); the stream's run follows in stream order.
        """
        heap, stream, cursor = self._heap, self._stream, self._cursor
        size = len(stream)
        if cursor < size:
            anchor = stream[cursor][0]
            if heap and heap[0][0] < anchor:
                anchor = heap[0][0]
        elif heap:
            anchor = heap[0][0]
        else:
            raise IndexError("pop_cluster() on an empty EventQueue")
        eps = TIME_EPS
        cluster = []
        while heap and heap[0][0] - anchor <= eps:
            cluster.append(heapq.heappop(heap))
        if len(cluster) > 1:
            cluster.sort(key=_URGENCY)
        end = cursor
        while end < size and stream[end][0] - anchor <= eps:
            end += 1
        if end > cursor:
            cluster += stream[cursor:end]
            self._cursor = end
        return cluster
