"""Condition literals and guards (paper §5.1).

A *condition* is produced by a fault-prone execution attempt: it is
true (``F``) when the attempt experienced a fault and false (``!F``)
otherwise. A *guard* is a conjunction of condition literals; schedule
table columns are headed by guards (paper Fig. 6) and FT-CPG nodes
exist under a guard.

Notation: the paper writes ``P1^2`` for the second execution copy of
``P1`` and ``P1/2^2`` for the second execution of its second segment.
Here an attempt is fully identified by (process, copy, segment,
attempt) and rendered ``P1(2)^s/a`` — the copy suffix is omitted for
copy 0, the segment/attempt suffixes whenever they are 1, matching the
paper's shorthand for non-replicated, non-checkpointed processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping


@dataclass(frozen=True, order=True)
class AttemptId:
    """Identifies one execution attempt of one segment of one copy.

    ``segment`` and ``attempt`` are 1-based, ``copy`` is 0-based
    (copy 0 is the original process).
    """

    process: str
    copy: int
    segment: int
    attempt: int

    def label(self) -> str:
        """Paper-style shorthand, e.g. ``P1^2`` or ``P1(2)^1/3``."""
        text = self.process
        if self.copy > 0:
            text += f"({self.copy + 1})"
        if self.segment != 1 or self.attempt != 1:
            text += f"^{self.segment}"
            if self.attempt != 1:
                text += f"/{self.attempt}"
        return text

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.label()


@dataclass(frozen=True, order=True)
class ConditionLiteral:
    """``F`` (faulty=True) or ``!F`` (faulty=False) of one attempt."""

    attempt: AttemptId
    faulty: bool

    def negated(self) -> "ConditionLiteral":
        """The complementary literal."""
        return ConditionLiteral(self.attempt, not self.faulty)

    def __str__(self) -> str:
        mark = "F" if self.faulty else "!F"
        return f"{mark}[{self.attempt.label()}]"


class Guard:
    """A conjunction of condition literals, in chronological order.

    The empty guard is the constant ``true`` (the unconditional column
    of paper Fig. 6). Guards never contain two literals over the same
    attempt.
    """

    __slots__ = ("_literals", "_by_attempt")

    def __init__(self, literals: Iterable[ConditionLiteral] = ()) -> None:
        ordered: list[ConditionLiteral] = []
        by_attempt: dict[AttemptId, bool] = {}
        for literal in literals:
            if literal.attempt in by_attempt:
                if by_attempt[literal.attempt] != literal.faulty:
                    raise ValueError(
                        f"contradictory guard: {literal.attempt.label()} "
                        "required both faulty and non-faulty"
                    )
                continue
            by_attempt[literal.attempt] = literal.faulty
            ordered.append(literal)
        self._literals = tuple(ordered)
        self._by_attempt = by_attempt

    TRUE: "Guard"  # assigned below

    @property
    def literals(self) -> tuple[ConditionLiteral, ...]:
        """Literals in chronological order."""
        return self._literals

    @property
    def is_unconditional(self) -> bool:
        """True for the empty (always-true) guard."""
        return not self._literals

    def extended(self, literal: ConditionLiteral) -> "Guard":
        """This guard AND one more literal.

        A literal over a new attempt is appended to copies of this
        guard's literals and attempt map, which is what the constructor
        would build from them; a repeated or contradictory one goes
        through the constructor.
        """
        if literal.attempt in self._by_attempt:
            return Guard(self._literals + (literal,))
        guard = Guard.__new__(Guard)
        guard._literals = self._literals + (literal,)
        by_attempt = self._by_attempt.copy()
        by_attempt[literal.attempt] = literal.faulty
        guard._by_attempt = by_attempt
        return guard

    def value_of(self, attempt: AttemptId) -> bool | None:
        """The required value of an attempt's condition, or ``None``."""
        return self._by_attempt.get(attempt)

    def compatible_with(self, other: "Guard") -> bool:
        """True when the conjunction of both guards is satisfiable."""
        small, large = (self, other) if len(self._literals) <= len(
            other._literals) else (other, self)
        for attempt, faulty in small._by_attempt.items():
            required = large._by_attempt.get(attempt)
            if required is not None and required != faulty:
                return False
        return True

    def union(self, other: "Guard") -> "Guard":
        """Conjunction of two compatible guards."""
        return Guard(self._literals + other._literals)

    def implies(self, other: "Guard") -> bool:
        """True when every assignment satisfying self satisfies other."""
        for attempt, faulty in other._by_attempt.items():
            if self._by_attempt.get(attempt) != faulty:
                return False
        return True

    def satisfied_by(self, values: Mapping[AttemptId, bool]) -> bool:
        """Evaluate under a complete-enough assignment.

        Raises ``KeyError`` when a required attempt is undecided; the
        runtime simulator uses this to detect non-executable tables.
        """
        return all(values[attempt] == faulty
                   for attempt, faulty in self._by_attempt.items())

    def decidable_with(self, values: Mapping[AttemptId, bool]) -> bool:
        """True when every literal's attempt has a known value."""
        return all(attempt in values for attempt in self._by_attempt)

    def fault_count(self) -> int:
        """Number of positive (faulty) literals."""
        return sum(1 for lit in self._literals if lit.faulty)

    def __len__(self) -> int:
        return len(self._literals)

    def __iter__(self):
        return iter(self._literals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Guard):
            return NotImplemented
        # Order-insensitive: a guard is a set of literals.
        return self._by_attempt == other._by_attempt

    def __hash__(self) -> int:
        return hash(frozenset(self._by_attempt.items()))

    def __str__(self) -> str:
        if not self._literals:
            return "true"
        return " & ".join(str(lit) for lit in self._literals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Guard({self})"


Guard.TRUE = Guard()
