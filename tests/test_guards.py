"""Unit tests for condition literals and guard algebra (paper §5.1)."""

from __future__ import annotations

import pytest

from repro.ftcpg import AttemptId, ConditionLiteral, Guard
from repro.schedule.table import _guard_masks, _merge_guards


def att(process: str = "P1", copy: int = 0, segment: int = 1,
        attempt: int = 1) -> AttemptId:
    return AttemptId(process, copy, segment, attempt)


def lit(process: str = "P1", faulty: bool = True, **kwargs,
        ) -> ConditionLiteral:
    return ConditionLiteral(att(process, **kwargs), faulty)


def numbering():
    """A fresh numbering of attempts as bits, looked up per literal."""
    bits: dict[AttemptId, int] = {}
    return lambda literal: bits.setdefault(literal.attempt, 1 << len(bits))


def merge_guards(guards: list[Guard]) -> list[Guard] | None:
    """What compression merges the guards of one shape into."""
    bit = numbering()
    return _merge_guards(guards, bit, lambda guard: _guard_masks(guard, bit))


def merge_pair(first: Guard, second: Guard) -> list[Guard] | None:
    """What compression merges two guards of one shape into."""
    return merge_guards([first, second])


class TestAttemptId:
    def test_label_plain(self):
        assert att("P1").label() == "P1"

    def test_label_replica(self):
        assert att("P1", copy=1).label() == "P1(2)"

    def test_label_segment_attempt(self):
        assert att("P1", segment=2, attempt=3).label() == "P1^2/3"

    def test_label_retry_of_first_segment(self):
        assert att("P1", attempt=2).label() == "P1^1/2"

    def test_ordering(self):
        assert att("P1") < att("P2")
        assert att("P1", segment=1) < att("P1", segment=2)


class TestConditionLiteral:
    def test_str(self):
        assert str(lit("P1", True)) == "F[P1]"
        assert str(lit("P1", False)) == "!F[P1]"

    def test_negated(self):
        literal = lit("P1", True)
        assert literal.negated().faulty is False
        assert literal.negated().attempt == literal.attempt


class TestGuard:
    def test_true_guard(self):
        assert Guard.TRUE.is_unconditional
        assert str(Guard.TRUE) == "true"
        assert len(Guard.TRUE) == 0

    def test_extended(self):
        g = Guard.TRUE.extended(lit("P1"))
        assert not g.is_unconditional
        assert g.value_of(att("P1")) is True

    def test_duplicate_literal_absorbed(self):
        g = Guard([lit("P1"), lit("P1")])
        assert len(g) == 1

    def test_contradiction_rejected(self):
        with pytest.raises(ValueError):
            Guard([lit("P1", True), lit("P1", False)])

    def test_compatibility(self):
        a = Guard([lit("P1", True)])
        b = Guard([lit("P1", False)])
        c = Guard([lit("P2", True)])
        assert not a.compatible_with(b)
        assert a.compatible_with(c)
        assert a.compatible_with(Guard.TRUE)

    def test_union(self):
        g = Guard([lit("P1")]).union(Guard([lit("P2")]))
        assert len(g) == 2

    # Compression's pair rule lives in ``_merge_guards``, which compares
    # guards as bitmasks over one numbering of their attempts.

    def test_merge_complementary_drops_the_differing_literal(self):
        a = Guard([lit("P1", True), lit("P2", False), lit("P3", True)])
        b = Guard([lit("P3", True), lit("P1", True), lit("P2", True)])
        [merged] = merge_pair(a, b)
        assert merged == Guard([lit("P1", True), lit("P3", True)])
        # The result keeps the first guard's literal order.
        assert str(merged) == "F[P1] & F[P3]"
        assert str(merge_pair(b, a)[0]) == "F[P3] & F[P1]"

    def test_merge_complementary_to_true(self):
        [merged] = merge_pair(Guard([lit("P1", True)]),
                              Guard([lit("P1", False)]))
        assert merged.is_unconditional

    def test_merge_complementary_rejects_non_pairs(self):
        ab = Guard([lit("P1", True), lit("P2", True)])
        # Two differing literals.
        assert merge_pair(
            ab, Guard([lit("P1", False), lit("P2", False)])) is None
        # Equal guards differ in nothing.
        assert merge_pair(
            ab, Guard([lit("P2", True), lit("P1", True)])) is None
        # Different attempt sets, equal or unequal in size.
        assert merge_pair(
            ab, Guard([lit("P1", False), lit("P3", True)])) is None
        assert merge_pair(ab, Guard([lit("P1", False)])) is None
        assert merge_pair(Guard.TRUE, Guard.TRUE) is None

    def test_implies(self):
        strong = Guard([lit("P1"), lit("P2")])
        weak = Guard([lit("P1")])
        assert strong.implies(weak)
        assert not weak.implies(strong)
        assert strong.implies(Guard.TRUE)

    def test_equality_is_order_insensitive(self):
        a = Guard([lit("P1"), lit("P2")])
        b = Guard([lit("P2"), lit("P1")])
        assert a == b
        assert hash(a) == hash(b)

    def test_satisfied_by(self):
        g = Guard([lit("P1", True), lit("P2", False)])
        assert g.satisfied_by({att("P1"): True, att("P2"): False})
        assert not g.satisfied_by({att("P1"): False, att("P2"): False})

    def test_satisfied_by_missing_raises(self):
        g = Guard([lit("P1", True)])
        with pytest.raises(KeyError):
            g.satisfied_by({})

    def test_decidable_with(self):
        g = Guard([lit("P1", True)])
        assert not g.decidable_with({})
        assert g.decidable_with({att("P1"): False})

    def test_fault_count(self):
        g = Guard([lit("P1", True), lit("P2", False), lit("P3", True)])
        assert g.fault_count() == 2

    def test_str_rendering(self):
        g = Guard([lit("P1", False), lit("P2", True)])
        assert str(g) == "!F[P1] & F[P2]"
