"""Unit tests for schedule tables, compression and rendering."""

from __future__ import annotations

import pytest

from repro.ftcpg.conditions import AttemptId, ConditionLiteral, Guard
from repro.schedule.table import (
    BUS,
    EntryKind,
    LeafScenario,
    ScheduleSet,
    TableEntry,
)
from repro.schedule.render import render_node_table, render_schedule_set
from repro.utils.textgrid import TextGrid


def att(process="P1", copy=0, segment=1, attempt=1):
    return AttemptId(process, copy, segment, attempt)


def entry(**kwargs):
    defaults = dict(kind=EntryKind.ATTEMPT, location="N1",
                    guard=Guard.TRUE, start=0.0, duration=10.0,
                    attempt=att())
    defaults.update(kwargs)
    return TableEntry(**defaults)


def schedule_of(entries, wc=50.0):
    return ScheduleSet(
        entries=tuple(entries),
        leaves=(LeafScenario(Guard.TRUE, wc),),
        worst_case_length=wc,
        fault_free_length=wc,
        deadline=100.0,
    )


class TestTableEntry:
    def test_end(self):
        assert entry(start=5.0, duration=3.0).end == 8.0

    def test_row_key_groups_attempts_of_copy(self):
        a = entry(attempt=att(attempt=1))
        b = entry(attempt=att(attempt=2))
        assert a.row_key() == b.row_key()

    def test_row_key_distinguishes_copies(self):
        a = entry(attempt=att(copy=0))
        b = entry(attempt=att(copy=1))
        assert a.row_key() != b.row_key()

    def test_cell_label(self):
        e = entry(start=30.0, attempt=att(attempt=2))
        assert e.cell_label() == "30 (P1^1/2)"


class TestScheduleSet:
    def test_entries_on_sorted(self):
        entries = [entry(start=20.0), entry(start=5.0)]
        schedule = schedule_of(entries)
        starts = [e.start for e in schedule.entries_on("N1")]
        assert starts == [5.0, 20.0]

    def test_locations_bus_last(self):
        entries = [
            entry(location="N2"),
            entry(kind=EntryKind.MESSAGE, location=BUS, message="m1",
                  attempt=None, producer_copy=0),
            entry(location="N1"),
        ]
        schedule = schedule_of(entries)
        assert schedule.locations == ("N1", "N2", BUS)

    def test_meets_deadline(self):
        assert schedule_of([entry()], wc=50.0).meets_deadline
        assert not schedule_of([entry()], wc=150.0).meets_deadline

    def test_attempts_of(self):
        entries = [entry(), entry(attempt=att("P2"))]
        schedule = schedule_of(entries)
        assert len(schedule.attempts_of("P1")) == 1


class TestCompression:
    def test_complementary_pair_merges(self):
        cond = att("P9")
        a = entry(guard=Guard([ConditionLiteral(cond, True)]))
        b = entry(guard=Guard([ConditionLiteral(cond, False)]))
        compressed = schedule_of([a, b]).compressed()
        assert len(compressed.entries) == 1
        assert compressed.entries[0].guard.is_unconditional

    def test_different_starts_not_merged(self):
        cond = att("P9")
        a = entry(guard=Guard([ConditionLiteral(cond, True)]),
                  start=1.0)
        b = entry(guard=Guard([ConditionLiteral(cond, False)]),
                  start=2.0)
        compressed = schedule_of([a, b]).compressed()
        assert len(compressed.entries) == 2

    def test_recursive_merge(self):
        c1, c2 = att("P8"), att("P9")
        guards = [
            Guard([ConditionLiteral(c1, True), ConditionLiteral(c2, True)]),
            Guard([ConditionLiteral(c1, True), ConditionLiteral(c2, False)]),
            Guard([ConditionLiteral(c1, False), ConditionLiteral(c2, True)]),
            Guard([ConditionLiteral(c1, False), ConditionLiteral(c2, False)]),
        ]
        entries = [entry(guard=g) for g in guards]
        compressed = schedule_of(entries).compressed()
        assert len(compressed.entries) == 1
        assert compressed.entries[0].guard.is_unconditional

    def test_partial_merge(self):
        c1, c2 = att("P8"), att("P9")
        entries = [
            entry(guard=Guard([ConditionLiteral(c1, True)])),
            entry(guard=Guard([ConditionLiteral(c1, False),
                               ConditionLiteral(c2, False)])),
        ]
        compressed = schedule_of(entries).compressed()
        # Literal sets differ: nothing merges.
        assert len(compressed.entries) == 2

    @pytest.mark.parametrize("order, expected", [
        # ab and a!b are scanned first: they merge to a, and !ab is
        # left without a partner.
        (("ab", "a!b", "!ab"), ["!F[P8] & F[P9]", "F[P8]"]),
        # !ab and ab are scanned first: they merge to b instead.
        (("!ab", "ab", "a!b"), ["F[P8] & !F[P9]", "F[P9]"]),
    ])
    def test_greedy_pair_order(self, order, expected):
        # a is P8 faulty, b is P9 faulty.
        values = {"ab": (True, True), "a!b": (True, False),
                  "!ab": (False, True)}
        entries = [
            entry(guard=Guard([ConditionLiteral(att("P8"), values[c][0]),
                               ConditionLiteral(att("P9"), values[c][1])]))
            for c in order]
        compressed = schedule_of(entries).compressed()
        assert [str(e.guard) for e in compressed.entries] == expected

    @pytest.mark.parametrize("field", ["start", "duration"])
    def test_near_equal_times_merge_across_a_rounding_boundary(self,
                                                               field):
        """Times closer than TIME_EPS are one time, even when they
        round to different 6-decimal values (1.0 and 1.000001)."""
        cond = att("P9")
        a = entry(guard=Guard([ConditionLiteral(cond, True)]),
                  **{field: 1.0000004})
        b = entry(guard=Guard([ConditionLiteral(cond, False)]),
                  **{field: 1.0000006})
        assert round(1.0000004, 6) != round(1.0000006, 6)
        compressed = schedule_of([a, b]).compressed()
        assert len(compressed.entries) == 1
        merged = compressed.entries[0]
        assert merged.guard.is_unconditional
        # The merged entry keeps its group's first entry.
        assert getattr(merged, field) == 1.0000004

    def test_can_fail_blocks_merge(self):
        cond = att("P9")
        a = entry(guard=Guard([ConditionLiteral(cond, True)]),
                  can_fail=True)
        b = entry(guard=Guard([ConditionLiteral(cond, False)]),
                  can_fail=False)
        compressed = schedule_of([a, b]).compressed()
        assert len(compressed.entries) == 2


class TestRendering:
    def test_node_table_contains_rows_and_guards(self):
        cond = att("P1")
        entries = [
            entry(),
            entry(guard=Guard([ConditionLiteral(cond, True)]),
                  attempt=att(attempt=2), start=12.0),
        ]
        text = render_node_table(schedule_of(entries), "N1")
        assert "P1" in text
        assert "F[P1]" in text
        assert "12 (P1^1/2)" in text

    def test_empty_location(self):
        text = render_node_table(schedule_of([entry()]), "N9")
        assert "no activity" in text

    def test_schedule_set_header(self):
        text = render_schedule_set(schedule_of([entry()]))
        assert "worst case 50.00" in text
        assert "1 scenarios" in text


class TestTextGrid:
    def test_render_alignment(self):
        grid = TextGrid(["a", "b"])
        grid.add_row(["xxxx", 1])
        text = grid.render()
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("a")

    def test_row_width_checked(self):
        grid = TextGrid(["a"])
        with pytest.raises(ValueError):
            grid.add_row([1, 2])

    def test_empty_header_rejected(self):
        with pytest.raises(ValueError):
            TextGrid([])

    def test_counts(self):
        grid = TextGrid(["a", "b"])
        grid.add_row([1, 2])
        assert grid.column_count == 2
        assert grid.row_count == 1
