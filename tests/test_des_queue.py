"""Determinism properties of the DES event queue.

The queue's contract is the tie-breaking law of docs/des.md: events
pop in anchored eps-clusters of time; within one cluster, priority
beats sub-eps time jitter and the monotone insertion counter breaks
the remaining ties. Hypothesis drives the structural properties
(cluster membership and priority order are invariant under shuffled
insertion; a presorted lowest-urgency stream merged into the clusters
pops exactly as if it had been pushed, and its live walk — only woken
positions run, dead ones only anchor — pops a plain heap's clusters
with the unwoken stream events filtered out), and pinned regressions
nail the anchor-vs-chain distinction for two events 1.5 eps apart and
the dead-anchor hazard.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.queue import EventQueue, Stream
from repro.utils.mathutils import TIME_EPS

#: Grid spacing far above the clustering tolerance, so each grid
#: point is its own cluster; the sub-eps offsets below jitter inside.
GRID = 1e-4
JITTERS = (0.0, 2e-7, 5e-7, 9e-7)

#: Priority of a presorted stream: below every pushed event's urgency
#: (the stream tests push priorities 0..2).
LOW = 3

EVENTS = st.lists(
    st.tuples(st.integers(0, 12), st.sampled_from(JITTERS),
              st.integers(0, 3)),
    min_size=1, max_size=24)


def _woken_queue(times):
    """A queue over a stream of ``times`` with every position woken."""
    queue = EventQueue(Stream(times))
    for position in range(len(times)):
        queue.wake(position)
    return queue


def _pop(queue, names=()):
    """One cluster's payloads: the heap events, then the woken stream
    positions (as ``names[position]``)."""
    cluster = [payload for *_rest, payload in queue.pop_cluster()]
    return cluster + [names[position] for position in queue.pop_woken()]


def _drain(events):
    """Push ``(time, priority, payload)`` triples, pop all clusters."""
    queue = EventQueue()
    for time, priority, payload in events:
        queue.push(time, priority, payload)
    clusters = []
    while queue:
        clusters.append(queue.pop_cluster())
    return clusters


class TestShuffleDeterminism:
    """Cluster structure is invariant under insertion order."""

    RELAXED = settings(max_examples=80, deadline=None)

    @RELAXED
    @given(raw=EVENTS, data=st.data())
    def test_shuffled_insertion_pops_identically(self, raw, data):
        events = [(grid * GRID + jitter, priority, index)
                  for index, (grid, jitter, priority)
                  in enumerate(raw)]
        shuffled = data.draw(st.permutations(events))
        baseline = _drain(events)
        reordered = _drain(shuffled)
        assert len(baseline) == len(reordered)
        for ours, theirs in zip(baseline, reordered):
            # Same cluster membership (times, priorities, payloads)...
            assert sorted((t, p, payload) for t, p, _s, payload in ours) \
                == sorted((t, p, payload) for t, p, _s, payload in theirs)
            # ...and the same resolved priority order within it.
            assert [p for _t, p, _s, _payload in ours] \
                == [p for _t, p, _s, _payload in theirs]

    @RELAXED
    @given(raw=EVENTS)
    def test_clusters_are_anchored_and_ordered(self, raw):
        events = [(grid * GRID + jitter, priority, index)
                  for index, (grid, jitter, priority)
                  in enumerate(raw)]
        clusters = _drain(events)
        assert sum(len(c) for c in clusters) == len(events)
        previous_anchor = None
        for cluster in clusters:
            times = [t for t, _p, _s, _payload in cluster]
            # Anchored: no member strays more than eps from the first.
            assert max(times) - min(times) <= TIME_EPS + 1e-18
            # Priority is nondecreasing within the cluster.
            priorities = [p for _t, p, _s, _payload in cluster]
            assert priorities == sorted(priorities)
            if previous_anchor is not None:
                assert min(times) > previous_anchor
            previous_anchor = min(times)

    def test_insertion_order_is_the_last_resort_tie_break(self):
        queue = EventQueue()
        for index in range(8):
            queue.push(7.0, 1, index)
        cluster = queue.pop_cluster()
        assert [payload for _t, _p, _s, payload in cluster] \
            == list(range(8))


class TestPinnedRegressions:
    """The exact boundary cases the replay-compatibility proof needs."""

    def test_adjacent_grid_points_split_time_beats_priority(self):
        """Two events 1.5 eps apart sit on adjacent clusters: the
        earlier one pops first even at the lowest-urgency priority.
        (Chained clustering would have merged them and let priority
        invert the order.)"""
        queue = EventQueue()
        queue.push(1.5 * TIME_EPS, 0, "urgent-later")
        queue.push(0.0, 3, "relaxed-earlier")
        first = queue.pop_cluster()
        second = queue.pop_cluster()
        assert [payload for *_rest, payload in first] \
            == ["relaxed-earlier"]
        assert [payload for *_rest, payload in second] \
            == ["urgent-later"]

    def test_sub_eps_jitter_is_absorbed_priority_wins(self):
        queue = EventQueue()
        queue.push(0.0, 3, "early-low-priority")
        queue.push(0.5 * TIME_EPS, 0, "late-high-priority")
        cluster = queue.pop_cluster()
        assert [payload for *_rest, payload in cluster] \
            == ["late-high-priority", "early-low-priority"]

    def test_empty_queue_raises(self):
        queue = EventQueue()
        assert not queue
        with pytest.raises(IndexError):
            queue.pop_cluster()

    def test_exhausted_stream_empties_the_queue(self):
        queue = _woken_queue((1.0, 2.0))
        assert queue
        assert _pop(queue, "ab") == ["a"]
        assert _pop(queue, "ab") == ["b"]
        assert not queue
        with pytest.raises(IndexError):
            queue.pop_cluster()

    def test_pushed_event_half_eps_after_activation_joins_first(self):
        """A pushed event 0.5 eps after a stream activation falls in
        the activation's cluster and, being more urgent, runs first."""
        queue = _woken_queue((1.0,))
        queue.push(1.0 + 0.5 * TIME_EPS, 2, "finish")
        assert _pop(queue, ["activate"]) == ["finish", "activate"]
        assert not queue

    def test_pushed_event_1_5_eps_after_activation_stays_apart(self):
        queue = _woken_queue((1.0,))
        queue.push(1.0 + 1.5 * TIME_EPS, 0, "finish")
        assert _pop(queue, ["activate"]) == ["activate"]
        assert _pop(queue) == ["finish"]

    def test_dead_entry_still_anchors_its_cluster(self):
        """The hazard of walking live entries only: a dead entry at
        1.0 anchors the cluster of a woken entry 0.6 eps later, so an
        event pushed 1.3 eps after the dead entry pops in the next
        cluster. Dropping the dead anchor would merge the two, and the
        more urgent push would run before the activation."""
        queue = EventQueue(Stream((1.0, 1.0 + 0.6 * TIME_EPS)))
        queue.wake(1)
        queue.push(1.0 + 1.3 * TIME_EPS, 0, "pushed")
        names = ("dead", "woken")
        assert _pop(queue, names) == ["woken"]
        assert _pop(queue, names) == ["pushed"]
        assert not queue

    def test_dead_clusters_are_skipped_and_trailing_ones_dropped(self):
        queue = EventQueue(Stream((1.0, 2.0, 3.0, 4.0)))
        assert not queue  # nothing woken, nothing pushed
        queue.wake(2)
        assert _pop(queue, "abcd") == ["c"]
        assert not queue  # position 3 is dead: no cluster left

    def test_wake_is_once_and_ignores_passed_positions(self):
        queue = EventQueue(Stream((1.0, 2.0, 3.0)))
        queue.push(2.0, 0, "event")
        queue.wake(1)
        queue.wake(1)
        assert _pop(queue, "abc") == ["event", "b"]
        queue.wake(0)  # passed (skipped dead cluster)
        queue.wake(1)  # passed (closed window)
        assert not queue
        queue.wake(2)
        assert _pop(queue, "abc") == ["c"]
        assert not queue

    def test_wake_from_a_heap_event_runs_in_its_own_cluster(self):
        """Positions woken while the cluster's heap events dispatch
        still run in that cluster, after them."""
        queue = EventQueue(Stream((1.0, 1.0 + 0.5 * TIME_EPS)))
        queue.push(1.0, 0, "learn")
        assert [p for *_r, p in queue.pop_cluster()] == ["learn"]
        queue.wake(1)
        assert queue.pop_woken() == [1]
        assert not queue

    def test_open_window_must_be_closed(self):
        queue = _woken_queue((1.0, 2.0))
        queue.pop_cluster()
        with pytest.raises(RuntimeError):
            queue.pop_cluster()

    @pytest.mark.parametrize("time", [float("inf"), float("-inf"),
                                      float("nan")])
    def test_non_finite_times_rejected(self, time):
        """An ``inf`` anchor made every later cluster empty (``inf -
        inf`` is NaN) while the queue stayed non-empty: the run loop
        never returned."""
        with pytest.raises(ValueError, match="finite"):
            EventQueue().push(time, 0, "never")
        with pytest.raises(ValueError, match="finite"):
            Stream((1.0, time))

    def test_stream_ends_are_anchored_windows(self):
        stream = Stream((0.0, 0.5 * TIME_EPS, 1.2 * TIME_EPS, 5.0))
        assert stream.ends == (2, 3, 3, 4)
        with pytest.raises(ValueError, match="sorted"):
            Stream((2.0, 1.0))


#: Offsets of pushes made between pops, from a time of the cluster
#: just popped: inside, on and beyond the eps boundary, and later.
OFFSETS = (0.0, 0.5 * TIME_EPS, TIME_EPS, 1.5 * TIME_EPS, GRID,
           2.5 * GRID)

#: Cap on pushes between pops (each popped push may cause more).
MAX_DYNAMIC = 16


def _resolved(cluster):
    """A popped cluster without its sequence numbers, which differ
    between a streamed and a pushed copy of the same event."""
    return [(time, priority, payload)
            for time, priority, _seq, payload in cluster]


def _pop_resolved(queue, times):
    """One cluster as :func:`_resolved` tuples, a woken position
    ``p`` as the stream event ``(times[p], LOW, ("stream", p))``."""
    cluster = _resolved(queue.pop_cluster())
    return cluster + [(times[position], LOW, ("stream", position))
                      for position in queue.pop_woken()]


#: Offsets from a grid point 0.3 eps apart, spanning 1.8 eps: a run
#: of them chains sub-eps gaps across more than one anchored cluster,
#: so a dropped dead anchor would regroup the clusters after it.
CHAIN = tuple(0.3 * TIME_EPS * step for step in range(7))


class TestStreamMerge:
    """The presorted stream pops as if it had been pushed first."""

    RELAXED = settings(max_examples=120, deadline=None)

    @RELAXED
    @given(raw_stream=st.lists(
               st.tuples(st.integers(0, 12), st.sampled_from(JITTERS)),
               max_size=24),
           raw_pushed=st.lists(
               st.tuples(st.integers(0, 12), st.sampled_from(JITTERS),
                         st.integers(0, 2)),
               max_size=12),
           data=st.data())
    def test_merged_stream_matches_plain_heap(self, raw_stream,
                                              raw_pushed, data):
        times = sorted(grid * GRID + jitter for grid, jitter in raw_stream)
        merged = _woken_queue(times)
        plain = EventQueue()
        for index, time in enumerate(times):
            plain.push(time, LOW, ("stream", index))

        def push(time, priority, payload):
            merged.push(time, priority, payload)
            plain.push(time, priority, payload)

        for index, (grid, jitter, priority) in enumerate(raw_pushed):
            push(grid * GRID + jitter, priority, ("pushed", index))
        dynamic = 0
        while plain:
            assert merged
            ours = _pop_resolved(merged, times)
            assert ours == _resolved(plain.pop_cluster())
            while dynamic < MAX_DYNAMIC and data.draw(st.booleans()):
                time = ours[0][0] + data.draw(st.sampled_from(OFFSETS))
                push(time, data.draw(st.integers(0, 2)),
                     ("dynamic", dynamic))
                dynamic += 1
        assert not merged

    @RELAXED
    @given(raw_stream=st.lists(
               st.tuples(st.integers(0, 4), st.sampled_from(CHAIN)),
               max_size=24),
           raw_pushed=st.lists(
               st.tuples(st.integers(0, 4), st.sampled_from(CHAIN),
                         st.integers(0, 2), st.integers(-1, 23)),
               max_size=12),
           data=st.data())
    def test_live_walk_matches_filtered_plain_heap(self, raw_stream,
                                                   raw_pushed, data):
        """Only woken stream positions run. Wakes come before the run
        and from dispatched heap events (a payload's last field names
        the position it wakes, -1 none). Each live cluster must equal
        the plain full-stream heap's cluster with the unwoken stream
        events filtered out, and clusters left empty dropped: dead
        positions still anchor, so no cluster regroups."""
        times = sorted(grid * GRID + jitter for grid, jitter in raw_stream)
        live = EventQueue(Stream(times))
        plain = EventQueue()
        for index, time in enumerate(times):
            plain.push(time, LOW, ("stream", index))
        #: Positions the plain run has woken (dispatching its own
        #: copies of the heap events).
        woken = set()

        def push(time, priority, payload):
            live.push(time, priority, payload)
            plain.push(time, priority, payload)

        for position in range(len(times)):
            if data.draw(st.booleans()):
                live.wake(position)
                woken.add(position)
        for index, (grid, jitter, priority, target) in enumerate(
                raw_pushed):
            push(grid * GRID + jitter, priority, ("pushed", index, target))
        dynamic = 0
        while plain:
            expected = []
            for time, priority, _seq, payload in plain.pop_cluster():
                if payload[0] != "stream":
                    expected.append((time, priority, payload))
                    # Dispatch: a position woken here runs in this
                    # cluster if it lies in it, later if it lies later.
                    woken.add(payload[-1])
                elif payload[1] in woken:
                    expected.append((time, priority, payload))
            if not expected:
                continue
            assert live
            heap_part = live.pop_cluster()
            for *_rest, payload in heap_part:
                if 0 <= payload[-1] < len(times):
                    live.wake(payload[-1])
            ours = _resolved(heap_part) + [
                (times[position], LOW, ("stream", position))
                for position in live.pop_woken()]
            assert ours == expected
            while dynamic < MAX_DYNAMIC and data.draw(st.booleans()):
                time = ours[0][0] + data.draw(st.sampled_from(OFFSETS))
                push(time, data.draw(st.integers(0, 2)),
                     ("dynamic", dynamic,
                      data.draw(st.integers(-1, len(times)))))
                dynamic += 1
        assert not live
