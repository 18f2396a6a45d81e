"""Determinism properties of the DES event queue.

The queue's contract is the tie-breaking law of docs/des.md: events
pop in anchored eps-clusters of time; within one cluster, priority
beats sub-eps time jitter and the monotone insertion counter breaks
the remaining ties. Hypothesis drives the structural properties
(cluster membership and priority order are invariant under shuffled
insertion; a presorted lowest-urgency stream merged into the clusters
pops exactly as if it had been pushed), and pinned regressions nail
the anchor-vs-chain distinction for two events 1.5 eps apart.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.queue import EventQueue
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
        queue = EventQueue(((1.0, LOW, 0, "a"), (2.0, LOW, 1, "b")))
        assert queue
        assert [payload for *_rest, payload in queue.pop_cluster()] \
            == ["a"]
        assert [payload for *_rest, payload in queue.pop_cluster()] \
            == ["b"]
        assert not queue
        with pytest.raises(IndexError):
            queue.pop_cluster()

    def test_pushed_event_half_eps_after_activation_joins_first(self):
        """A pushed event 0.5 eps after a stream activation falls in
        the activation's cluster and, being more urgent, runs first."""
        queue = EventQueue(((1.0, LOW, 0, "activate"),))
        queue.push(1.0 + 0.5 * TIME_EPS, 2, "finish")
        assert [payload for *_rest, payload in queue.pop_cluster()] \
            == ["finish", "activate"]
        assert not queue

    def test_pushed_event_1_5_eps_after_activation_stays_apart(self):
        queue = EventQueue(((1.0, LOW, 0, "activate"),))
        queue.push(1.0 + 1.5 * TIME_EPS, 0, "finish")
        assert [payload for *_rest, payload in queue.pop_cluster()] \
            == ["activate"]
        assert [payload for *_rest, payload in queue.pop_cluster()] \
            == ["finish"]


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
        stream = tuple((time, LOW, index, ("stream", index))
                       for index, time in enumerate(times))
        merged = EventQueue(stream)
        plain = EventQueue()
        for time, priority, _seq, payload in stream:
            plain.push(time, priority, payload)

        def push(time, priority, payload):
            merged.push(time, priority, payload)
            plain.push(time, priority, payload)

        for index, (grid, jitter, priority) in enumerate(raw_pushed):
            push(grid * GRID + jitter, priority, ("pushed", index))
        dynamic = 0
        while plain:
            assert merged
            ours = merged.pop_cluster()
            assert _resolved(ours) == _resolved(plain.pop_cluster())
            while dynamic < MAX_DYNAMIC and data.draw(st.booleans()):
                time = ours[0][0] + data.draw(st.sampled_from(OFFSETS))
                push(time, data.draw(st.integers(0, 2)),
                     ("dynamic", dynamic))
                dynamic += 1
        assert not merged
