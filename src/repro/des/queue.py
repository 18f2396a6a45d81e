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

Besides the heap, a queue may own a :class:`Stream`: the presorted
times of events known before the run starts, all of the lowest
urgency (they run after every pushed event of their cluster). The
stream never enters the heap, and a stream position runs only if the
caller wakes it (:meth:`EventQueue.wake`); the rest are *dead*. Dead
positions still anchor clusters, so the clusters are the ones a plain
heap fed the whole stream first would form; a cluster with no heap
event and no woken position has no effect and is skipped in one step.
A live cluster pops in two phases: :meth:`EventQueue.pop_cluster`
returns its heap events, and :meth:`EventQueue.pop_woken`, called
after they are dispatched, returns the positions woken inside its
window in stream order — including positions those events woke.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Sequence
from operator import itemgetter
from typing import Any

from repro.utils.mathutils import TIME_EPS

#: One scheduled event: ``(time, priority, seq, payload)``.
QueuedEvent = tuple[float, int, int, Any]

_URGENCY = itemgetter(1, 2)


class Stream:
    """Presorted times of the events known before a run starts.

    ``ends[i]`` is the first position ``j`` with ``times[j] - times[i]
    > TIME_EPS`` — the end of the window of a cluster anchored at
    position ``i``. Immutable and shared: a caller builds one stream
    per design and hands it to one queue per run.
    """

    __slots__ = ("times", "ends")

    def __init__(self, times: Sequence[float] = ()) -> None:
        times = tuple(times)
        if not all(map(math.isfinite, times)):
            raise ValueError("stream times must be finite")
        if any(later < earlier
               for earlier, later in zip(times, times[1:])):
            raise ValueError("stream times must be sorted")
        ends: list[int] = []
        end = 0
        for position, anchor in enumerate(times):
            end = max(end, position + 1)
            while end < len(times) and times[end] - anchor <= TIME_EPS:
                end += 1
            ends.append(end)
        self.times: tuple[float, ...] = times
        self.ends: tuple[int, ...] = tuple(ends)


_NO_STREAM = Stream()


class EventQueue:
    """Deterministic priority queue of timed events.

    ``push`` is O(log n); ``pop_cluster`` removes and returns the heap
    events of the next live anchored eps-cluster, ordered by
    ``(priority, seq)``, and ``pop_woken`` then returns the cluster's
    woken stream positions. The clustering is *anchored*: a cluster
    holds the run of pending times within ``eps`` (``TIME_EPS``) of
    its earliest member, so no cluster is ever wider than ``eps``
    (chained clustering could merge arbitrarily long runs of
    eps-spaced events).

    ``stream`` (see the module docstring) is shared, never copied or
    modified; which positions are woken is per-queue state.
    """

    def __init__(self, stream: Stream = _NO_STREAM) -> None:
        self._heap: list[QueuedEvent] = []
        self._seq = itertools.count()
        self._times = stream.times
        self._ends = stream.ends
        #: Positions before ``_cursor`` are passed; ``[_cursor, _end)``
        #: is the window of the cluster ``pop_woken`` has yet to close.
        self._cursor = 0
        self._end = 0
        #: Heap of the woken positions not yet returned.
        self._woken: list[int] = []
        self._seen = bytearray(len(self._times))

    def __bool__(self) -> bool:
        return bool(self._heap) or bool(self._woken)

    def push(self, time: float, priority: int, payload: Any) -> int:
        """Schedule one event; returns its monotone sequence number.

        A non-finite time raises :class:`ValueError`: no cluster could
        ever be anchored on it (``inf - inf`` is NaN)."""
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time}")
        seq = next(self._seq)
        heapq.heappush(self._heap, (time, priority, seq, payload))
        return seq

    def wake(self, position: int) -> None:
        """Let stream position ``position`` run in its cluster.

        Waking twice is a no-op, and so is waking a position the queue
        has passed (a closed cluster's window, or a skipped one)."""
        if position >= self._cursor and not self._seen[position]:
            self._seen[position] = 1
            heapq.heappush(self._woken, position)

    def pop_cluster(self) -> list[QueuedEvent]:
        """Remove and return the heap events of the next live cluster.

        The anchor is the earliest pending time, on the heap or at the
        stream cursor, dead positions included. Heap and stream both
        yield nondecreasing times, so "everything within ``eps`` of
        the anchor" is a run of heap pops plus a window of stream
        positions — exactly the anchored group
        :func:`~repro.utils.mathutils.eps_cluster_ids` would assign.
        A stream-anchored cluster with no heap event in reach and no
        woken position in its window is skipped whole (its window is
        ``ends[cursor]``). The heap events are returned ordered by
        ``(priority, seq)`` (priority beats sub-eps time jitter,
        insertion order breaks the remaining ties); the cluster's
        stream window stays open for :meth:`pop_woken`.
        """
        cursor = self._cursor
        if self._end > cursor:
            raise RuntimeError("pop_woken() must close the previous "
                               "cluster first")
        heap, woken = self._heap, self._woken
        if not heap and not woken:
            raise IndexError("pop_cluster() on an empty EventQueue")
        times, ends = self._times, self._ends
        size = len(times)
        eps = TIME_EPS
        top = heap[0][0] if heap else math.inf
        first = woken[0] if woken else size
        while True:
            if cursor < size:
                anchor = times[cursor]
                if anchor <= top:
                    end = ends[cursor]
                    if top - anchor > eps and first >= end:
                        cursor = end  # dead: it only anchored a cluster
                        continue
                    break
            anchor = top
            end = cursor
            while end < size and times[end] - anchor <= eps:
                end += 1
            break
        self._cursor = cursor
        self._end = end
        cluster = []
        while heap and heap[0][0] - anchor <= eps:
            cluster.append(heapq.heappop(heap))
        if len(cluster) > 1:
            cluster.sort(key=_URGENCY)
        return cluster

    def pop_woken(self) -> list[int]:
        """Close the window :meth:`pop_cluster` opened: return the
        positions woken inside it, in stream order, and pass them all.

        Call it after dispatching the cluster's heap events, so the
        positions those events wake still run in this cluster."""
        end, woken = self._end, self._woken
        live = []
        while woken and woken[0] < end:
            live.append(heapq.heappop(woken))
        self._cursor = end
        return live
