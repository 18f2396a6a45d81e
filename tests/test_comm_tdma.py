"""Unit tests for the TDMA bus substrate (paper §2)."""

from __future__ import annotations

import math
import pickle
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import BusReservations, TdmaBus
from repro.comm.tdma import FrameWindow, Transmission
from repro.errors import ValidationError
from repro.model import BusSpec, FaultModel
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.schedule.estimation import EstimatorState
from repro.synthesis import initial_mapping
from repro.synthesis.moves import RemapMove
from repro.utils.mathutils import TIME_EPS
from repro.workloads import GeneratorConfig, generate_workload


@pytest.fixture
def bus() -> TdmaBus:
    # Two nodes, slot length 2 => round length 4, N1 at 0, N2 at 2.
    return TdmaBus(BusSpec(("N1", "N2"), slot_length=2.0,
                           slot_payload_bytes=8))


class TestSlotMath:
    def test_round_length(self, bus):
        assert bus.round_length == 4.0

    def test_slots_of(self, bus):
        assert bus.slots_of("N1") == (0,)
        assert bus.slots_of("N2") == (1,)

    def test_slots_of_unknown_node(self, bus):
        with pytest.raises(ValidationError):
            bus.slots_of("N9")

    def test_searches_reject_unknown_node(self, bus):
        with pytest.raises(ValidationError):
            next(bus.owner_slot_occurrences("N9", 0.0))
        with pytest.raises(ValidationError):
            bus.schedule_transmission("N9", 0.0, 4, BusReservations())

    def test_transmission_rejects_sizes_below_one_byte(self, bus):
        for size in (-1, 0):
            with pytest.raises(ValueError):
                bus.schedule_transmission("N1", 0.0, size,
                                          BusReservations())

    def test_slot_window(self, bus):
        w = bus.slot_window(3, 1)
        assert w.start == 3 * 4.0 + 2.0
        assert w.end == w.start + 2.0

    def test_multiple_slots_per_round(self):
        bus = TdmaBus(BusSpec(("A", "B", "A"), slot_length=1.0))
        assert bus.slots_of("A") == (0, 2)

    def test_frames_needed(self, bus):
        assert bus.frames_needed(1) == 1
        assert bus.frames_needed(8) == 1
        assert bus.frames_needed(9) == 2
        assert bus.frames_needed(24) == 3

    def test_owner_occurrences_start_at_earliest(self, bus):
        windows = bus.owner_slot_occurrences("N2", 5.0)
        first = next(windows)
        assert first.start == 6.0  # N2 slots at 2, 6, 10, ...

    def test_owner_occurrence_exact_boundary(self, bus):
        windows = bus.owner_slot_occurrences("N1", 4.0)
        assert next(windows).start == 4.0  # frame ready exactly at slot


class TestTransmissions:
    def test_single_frame(self, bus):
        res = BusReservations()
        t = bus.schedule_transmission("N1", 0.0, 4, res)
        assert t.start == 0.0
        assert t.arrival == 2.0

    def test_multi_frame_spans_rounds(self, bus):
        res = BusReservations()
        t = bus.schedule_transmission("N1", 0.0, 16, res)
        assert [f.start for f in t.frames] == [0.0, 4.0]
        assert t.arrival == 6.0

    def test_contention_pushes_to_next_round(self, bus):
        res = BusReservations()
        first = bus.schedule_transmission("N1", 0.0, 4, res)
        second = bus.schedule_transmission("N1", 0.0, 4, res)
        assert first.start == 0.0
        assert second.start == 4.0

    def test_different_senders_no_conflict(self, bus):
        res = BusReservations()
        t1 = bus.schedule_transmission("N1", 0.0, 4, res)
        t2 = bus.schedule_transmission("N2", 0.0, 4, res)
        assert t1.start == 0.0
        assert t2.start == 2.0


class TestReservations:
    def test_reserve_and_query(self):
        res = BusReservations()
        assert not res.is_reserved((0, 0))
        res.reserve((0, 0))
        assert res.is_reserved((0, 0))

    def test_double_reserve_rejected(self):
        res = BusReservations()
        res.reserve((0, 0))
        with pytest.raises(ValueError):
            res.reserve((0, 0))

    def test_fork_sees_parent(self):
        parent = BusReservations()
        parent.reserve((0, 0))
        child = parent.fork()
        assert child.is_reserved((0, 0))

    def test_fork_isolation_between_siblings(self):
        parent = BusReservations()
        a = parent.fork()
        b = parent.fork()
        a.reserve((1, 0))
        assert not b.is_reserved((1, 0))
        assert not parent.is_reserved((1, 0))

    def test_flatten(self):
        parent = BusReservations()
        parent.reserve((0, 0))
        child = parent.fork()
        child.reserve((1, 1))
        assert child.flatten() == {(0, 0), (1, 1)}
        assert len(child) == 2

    def test_reserve_all(self):
        parent = BusReservations()
        parent.reserve((0, 0))
        child = parent.fork()
        child.reserve_all([(1, 0), (1, 1), (2, 0)])
        assert child.flatten() == {(0, 0), (1, 0), (1, 1), (2, 0)}
        assert not parent.is_reserved((1, 0))
        child.reserve_all([])
        assert len(child) == 4

    @pytest.mark.parametrize("batch", [
        [(3, 0), (0, 0)],          # taken in the parent
        [(3, 0), (1, 1)],          # taken in the table itself
        [(3, 0), (4, 1), (3, 0)],  # listed twice
    ])
    def test_reserve_all_rejects_and_reserves_nothing(self, batch):
        parent = BusReservations()
        parent.reserve((0, 0))
        child = parent.fork()
        child.reserve((1, 1))
        with pytest.raises(ValueError, match="reserved twice"):
            child.reserve_all(batch)
        assert child.flatten() == {(0, 0), (1, 1)}
        assert parent.flatten() == {(0, 0)}


# -- the per-node slot table ----------------------------------------------


def reference_occurrences(spec: BusSpec, node: str, earliest: float):
    """The slot windows of ``node`` at or after ``earliest``, read
    straight off ``slot_order`` (one round before ``earliest``'s first,
    as the searches start, and the same start arithmetic)."""
    round_length = spec.round_length
    slot_length = spec.slot_length
    r = max(0, int(earliest // round_length) - 1)
    while True:
        for s, owner in enumerate(spec.slot_order):
            start = r * round_length + s * slot_length
            if owner == node and start >= earliest - TIME_EPS:
                yield FrameWindow(r, s, start, start + slot_length)
        r += 1


def reference_transmission(spec: BusSpec, node: str, earliest: float,
                           size_bytes: int, taken: set) -> Transmission:
    """The first free windows a message of ``size_bytes`` needs."""
    needed = -(-size_bytes // spec.slot_payload_bytes)
    frames = []
    for window in reference_occurrences(spec, node, earliest):
        if (window.round_index, window.slot_index) not in taken:
            frames.append(window)
            if len(frames) == needed:
                return Transmission(node, tuple(frames))
    raise AssertionError("unreachable")  # pragma: no cover


@st.composite
def slot_search_cases(draw):
    """A bus whose nodes own 1-3 slots each with a slot length that is
    no power of two, a reservation table (sometimes forked) with taken
    slots, a sender, a 1-3 frame payload and an ``earliest`` on a slot
    start, half a tolerance around one, or anywhere."""
    nodes = ("A", "B", "C")[:draw(st.integers(1, 3))]
    order = draw(st.permutations(
        [node for node in nodes for _ in range(draw(st.integers(1, 3)))]))
    slot_length = draw(st.floats(0.05, 50.0).filter(
        lambda value: math.frexp(value)[0] != 0.5))
    payload = draw(st.integers(1, 16))
    spec = BusSpec(tuple(order), slot_length=slot_length,
                   slot_payload_bytes=payload)
    key = st.tuples(st.integers(0, 8), st.integers(0, len(order) - 1))
    table = BusReservations()
    for taken in draw(st.lists(key, max_size=12, unique=True)):
        table.reserve(taken)
    if draw(st.booleans()):
        table = table.fork()
        for taken in draw(st.lists(key, max_size=6, unique=True)):
            if not table.is_reserved(taken):
                table.reserve(taken)
    node = draw(st.sampled_from(nodes))
    frames = draw(st.integers(1, 3))
    size_bytes = draw(st.integers((frames - 1) * payload + 1,
                                  frames * payload))
    slot_start = (draw(st.integers(0, 8)) * spec.round_length
                  + draw(st.integers(0, len(order) - 1)) * slot_length)
    earliest = draw(st.one_of(
        st.just(slot_start),
        st.sampled_from([slot_start - TIME_EPS / 2,
                         slot_start + TIME_EPS / 2]).map(
            lambda value: max(value, 0.0)),
        st.floats(0.0, 9 * spec.round_length)))
    return spec, table, node, size_bytes, earliest


class TestSlotTable:
    @settings(max_examples=150, deadline=None)
    @given(case=slot_search_cases())
    def test_searches_match_reference(self, case):
        spec, table, node, size_bytes, earliest = case
        bus = TdmaBus(spec)
        got = list(islice(bus.owner_slot_occurrences(node, earliest), 8))
        want = list(islice(reference_occurrences(spec, node, earliest), 8))
        assert got == want
        taken = table.flatten()
        expected = reference_transmission(spec, node, earliest,
                                          size_bytes, taken)
        transmission = bus.schedule_transmission(node, earliest,
                                                 size_bytes, table)
        assert transmission == expected
        assert table.flatten() == taken | {
            (frame.round_index, frame.slot_index)
            for frame in expected.frames}

    def test_pickled_state_is_the_four_spec_fields(self):
        bus = TdmaBus(BusSpec(("A", "B", "A"), slot_length=1.3,
                              slot_payload_bytes=5))
        state = bus.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
        assert list(state) == ["_spec", "_slots_of", "_round_length",
                               "_slot_length"]
        restored = pickle.loads(pickle.dumps(bus))
        assert vars(restored) == vars(bus)
        assert restored.schedule_transmission(
            "A", 2.0, 12, BusReservations()) == bus.schedule_transmission(
            "A", 2.0, 12, BusReservations())

    def test_contended_state_reevaluates_after_pickling(self):
        app, arch = generate_workload(GeneratorConfig(
            processes=8, nodes=3, seed=3))
        policies = PolicyAssignment.uniform(app,
                                            ProcessPolicy.re_execution(2))
        mapping = initial_mapping(app, arch, policies)
        state = EstimatorState.compute(app, arch, mapping, policies,
                                       FaultModel(k=2),
                                       bus_contention=True)
        clone = pickle.loads(pickle.dumps(state))
        moves = 0
        for name in app.process_names:
            process = app.process(name)
            if process.fixed_node is not None:
                continue
            for node in process.allowed_nodes:
                move = RemapMove(name, 0, node)
                if not move.applies_to((policies, mapping)):
                    continue
                new_p, new_m = move.apply((policies, mapping), app)
                want = state.reevaluate(new_p, new_m, name).estimate
                got = clone.reevaluate(new_p, new_m, name).estimate
                assert got.schedule_length == want.schedule_length
                assert got.ff_length == want.ff_length
                assert got.timings == want.timings
                assert got.local_deadline_violations == \
                    want.local_deadline_violations
                moves += 1
        assert moves > 0
