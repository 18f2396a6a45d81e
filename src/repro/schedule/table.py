"""Conditional schedule tables (paper §5.2).

The output of the conditional scheduler is a set of entries, each
guarded by a conjunction of condition values. Grouped per node (plus
the bus) they form the schedule tables of paper Fig. 6: one row per
process/message/condition, one column per guard, activation times in
the cells. A distributed run-time scheduler stores its node's part and
activates entries whose guard matches the observed conditions.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.comm.tdma import FrameWindow
from repro.ftcpg.conditions import AttemptId, ConditionLiteral, Guard
from repro.utils.mathutils import eps_cluster_ids, feq

#: Pseudo-location of bus entries.
BUS = "bus"


class EntryKind(enum.Enum):
    """What a table entry activates."""

    ATTEMPT = "attempt"
    MESSAGE = "message"
    BROADCAST = "broadcast"


@dataclass(frozen=True)
class TableEntry:
    """One activation in a schedule table.

    * ``ATTEMPT``: execution attempt ``attempt`` on node ``location``;
      ``duration`` includes the applicable χ/μ/α overheads and
      ``can_fail`` records whether error detection is part of it.
    * ``MESSAGE``: transmission of ``message`` produced by copy
      ``producer_copy``; ``frames`` are the reserved bus slots.
    * ``BROADCAST``: condition-value broadcast of ``attempt``.
    """

    kind: EntryKind
    location: str
    guard: Guard
    start: float
    duration: float
    attempt: AttemptId | None = None
    message: str | None = None
    producer_copy: int | None = None
    frames: tuple[FrameWindow, ...] = ()
    can_fail: bool = False

    @property
    def end(self) -> float:
        """End of the activation."""
        return self.start + self.duration

    def row_key(self) -> tuple:
        """Grouping key: all attempts of one copy share a process row,
        message instances share a message row, broadcasts have a row
        per condition (as in paper Fig. 6)."""
        if self.kind is EntryKind.ATTEMPT:
            return ("P", self.attempt.process, self.attempt.copy)
        if self.kind is EntryKind.MESSAGE:
            return ("M", self.message, self.producer_copy)
        return ("C", self.attempt)

    def cell_label(self) -> str:
        """Cell text, paper style: ``start (attempt-label)``."""
        if self.kind is EntryKind.ATTEMPT:
            return f"{_fmt(self.start)} ({self.attempt.label()})"
        return _fmt(self.start)


def _fmt(value: float) -> str:
    if feq(value, round(value)):
        return str(int(round(value)))
    return f"{value:.2f}"


@dataclass
class LeafScenario:
    """One fully-resolved fault scenario explored by the scheduler."""

    guard: Guard
    makespan: float

    @property
    def fault_count(self) -> int:
        """Observable faults in this scenario."""
        return self.guard.fault_count()


@dataclass
class ScheduleSet:
    """The complete set ``S`` of schedule tables (paper §6, step 4)."""

    entries: tuple[TableEntry, ...]
    leaves: tuple[LeafScenario, ...]
    worst_case_length: float
    fault_free_length: float
    deadline: float

    @property
    def meets_deadline(self) -> bool:
        """Worst case within the global deadline."""
        return self.worst_case_length <= self.deadline + 1e-9

    @property
    def scenario_count(self) -> int:
        """Number of distinct observable fault scenarios."""
        return len(self.leaves)

    def entries_on(self, location: str) -> tuple[TableEntry, ...]:
        """Entries of one node's table (or the bus), by start time."""
        selected = [e for e in self.entries if e.location == location]
        selected.sort(key=lambda e: (e.start, len(e.guard)))
        return tuple(selected)

    @property
    def locations(self) -> tuple[str, ...]:
        """All locations with entries (nodes first, then the bus)."""
        names = {e.location for e in self.entries}
        ordered = sorted(names - {BUS})
        if BUS in names:
            ordered.append(BUS)
        return tuple(ordered)

    def attempts_of(self, process: str) -> tuple[TableEntry, ...]:
        """All attempt entries of one process, by start time."""
        selected = [
            e for e in self.entries
            if e.kind is EntryKind.ATTEMPT and e.attempt.process == process
        ]
        selected.sort(key=lambda e: (e.start, len(e.guard)))
        return tuple(selected)

    def compressed(self) -> "ScheduleSet":
        """Merge sibling entries that do not depend on a condition.

        If two entries are identical except that one guard contains a
        literal and the other its negation, the condition does not
        influence the activation: both collapse into one entry without
        the literal. This yields the compact tables of paper Fig. 6.

        One pass of per-shape fixpoints: entries are grouped by shape
        (everything but the guard, with starts and durations compared
        by ``TIME_EPS`` cluster) and each group's guards are merged
        until no complementary pair is left. A merged entry keeps its
        group's first entry, and every group ends at a fixpoint, so a
        second pass could never merge anything.
        """
        entries = self.entries
        starts = sorted({entry.start for entry in entries})
        start_id = dict(zip(starts, eps_cluster_ids(starts)))
        durations = sorted({entry.duration for entry in entries})
        duration_id = dict(zip(durations, eps_cluster_ids(durations)))
        by_shape: dict[tuple, list[int]] = {}
        for index, entry in enumerate(entries):
            shape = (entry.kind, entry.location, entry.attempt,
                     entry.message, entry.producer_copy,
                     start_id[entry.start], duration_id[entry.duration],
                     entry.frames, entry.can_fail)
            by_shape.setdefault(shape, []).append(index)
        # Guards share literal objects (a guard extends its parent's
        # literal tuple), so each literal's attempt is numbered once,
        # memoized by id(). Every literal it sees is one of
        # ``entries``, which outlive it: no id is recycled.
        bit_of: dict[AttemptId, int] = {}
        memo: dict[int, int] = {}

        def bit(literal: ConditionLiteral) -> int:
            found = memo.get(id(literal))
            if found is None:
                found = memo[id(literal)] = bit_of.setdefault(
                    literal.attempt, 1 << len(bit_of))
            return found

        # The entries of one context share their guard object across
        # shape groups, so each guard's masks are built once, memoized
        # by id() as safely as the literals above.
        masks_of: dict[int, tuple[int, int]] = {}

        def masks(guard: Guard) -> tuple[int, int]:
            found = masks_of.get(id(guard))
            if found is None:
                found = masks_of[id(guard)] = _guard_masks(guard, bit)
            return found

        merged_out: set[int] = set()
        additions: list[TableEntry] = []
        for indices in by_shape.values():
            if len(indices) < 2:
                continue
            result = _merge_guards([entries[i].guard for i in indices],
                                   bit, masks)
            if result is not None:
                merged_out.update(indices)
                additions.extend(replace(entries[indices[0]], guard=guard)
                                 for guard in result)
        return ScheduleSet(
            entries=tuple(e for i, e in enumerate(entries)
                          if i not in merged_out) + tuple(additions),
            leaves=self.leaves,
            worst_case_length=self.worst_case_length,
            fault_free_length=self.fault_free_length,
            deadline=self.deadline,
        )


def _guard_masks(guard: Guard, bit: Callable[[ConditionLiteral], int],
                 ) -> tuple[int, int]:
    """A guard's ``(care, value)`` bitmasks over the numbering ``bit``:
    the attempts it constrains and those it requires faulty."""
    care = value = 0
    for literal in guard.literals:
        literal_bit = bit(literal)
        care |= literal_bit
        if literal.faulty:
            value |= literal_bit
    return care, value


def _merge_guards(guards: list[Guard],
                  bit: Callable[[ConditionLiteral], int],
                  masks: Callable[[Guard], tuple[int, int]],
                  ) -> list[Guard] | None:
    """Merge complementary guard pairs until none is left.

    Guards are compared as bitmasks over the attempt numbering ``bit``:
    ``care`` (the attempts constrained) and ``value`` (those required
    faulty), as ``masks`` gives them (:func:`_guard_masks` over
    ``bit``). Two guards pair when their ``care`` is equal and their
    ``value`` differs in one bit; their disjunction is the first guard
    without that literal, in its literal order.

    Greedy: the first mergeable pair in scan order merges, its union
    goes to the end of the list and the scan restarts. Returns the
    reduced set, or ``None`` when nothing merges.
    """
    remaining = [(*masks(guard), guard) for guard in guards]
    merged_any = False
    while (pair := _first_pair(remaining)) is not None:
        i, j, diff = pair
        care, value, guard = remaining[i]
        union = Guard(literal for literal in guard.literals
                      if bit(literal) != diff)
        del remaining[j], remaining[i]
        remaining.append((care & ~diff, value & ~diff, union))
        merged_any = True
    return [guard for _care, _value, guard in remaining] \
        if merged_any else None


def _first_pair(masked: list[tuple[int, int, Guard]],
                ) -> tuple[int, int, int] | None:
    """The first complementary pair ``i < j`` and its differing bit."""
    for i, (care, value, _guard) in enumerate(masked):
        for j in range(i + 1, len(masked)):
            other_care, other_value, _other = masked[j]
            diff = value ^ other_value
            if other_care == care and diff and not diff & (diff - 1):
                return i, j, diff
    return None
