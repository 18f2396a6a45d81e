"""Property-based tests for guard algebra (hypothesis)."""

from __future__ import annotations

import itertools
import pickle

import pytest
from hypothesis import example, given, strategies as st

from repro.ftcpg import AttemptId, ConditionLiteral, Guard
from tests.test_guards import merge_guards, merge_pair

attempt_ids = st.builds(
    AttemptId,
    process=st.sampled_from(["P1", "P2", "P3", "P4"]),
    copy=st.integers(0, 2),
    segment=st.integers(1, 3),
    attempt=st.integers(1, 3),
)
literals = st.builds(ConditionLiteral, attempt=attempt_ids,
                     faulty=st.booleans())


def consistent_literals(draw_list: list[ConditionLiteral],
                        ) -> list[ConditionLiteral]:
    seen: dict[AttemptId, bool] = {}
    result = []
    for literal in draw_list:
        if literal.attempt in seen:
            continue
        seen[literal.attempt] = literal.faulty
        result.append(literal)
    return result


guards = st.lists(literals, max_size=6).map(
    lambda ls: Guard(consistent_literals(ls)))


@st.composite
def guard_and_literal(draw) -> tuple[Guard, ConditionLiteral]:
    """A guard and a literal that, half the time when the guard has
    literals, repeats or contradicts one of them."""
    guard = draw(guards)
    if guard.literals and draw(st.booleans()):
        existing = draw(st.sampled_from(guard.literals))
        return guard, ConditionLiteral(existing.attempt, draw(st.booleans()))
    return guard, draw(literals)


@st.composite
def guard_sets(draw) -> list[Guard]:
    """2 to 12 guards over at most 5 attempts, duplicates allowed:
    the guards of one compression shape group."""
    pool = draw(st.lists(attempt_ids, min_size=1, max_size=5, unique=True))
    pooled = st.builds(ConditionLiteral, attempt=st.sampled_from(pool),
                       faulty=st.booleans())
    return draw(st.lists(
        st.lists(pooled, max_size=len(pool)).map(
            lambda ls: Guard(consistent_literals(ls))),
        min_size=2, max_size=12))


def _covered(guards: list[Guard], attempts: list[AttemptId],
             ) -> set[tuple[bool, ...]]:
    """The total assignments of ``attempts`` some guard holds under."""
    return {values for values in itertools.product(
                (False, True), repeat=len(attempts))
            if any(guard.satisfied_by(dict(zip(attempts, values)))
                   for guard in guards)}


_A, _B = AttemptId("P1", 0, 1, 1), AttemptId("P2", 0, 1, 1)


def _ab(a: bool, b: bool) -> Guard:
    return Guard([ConditionLiteral(_A, a), ConditionLiteral(_B, b)])


class TestMergeGuardsProperties:
    @given(guard_sets())
    # {ab, a!b, !ab}: the result depends on which pair is scanned
    # first; the property holds either way.
    @example([_ab(True, True), _ab(True, False), _ab(False, True)])
    @example([_ab(False, True), _ab(True, True), _ab(True, False)])
    def test_merging_keeps_what_the_guards_cover(self, guards):
        attempts = sorted({literal.attempt for guard in guards
                           for literal in guard.literals})
        merged = merge_guards(guards)
        result = guards if merged is None else merged
        assert _covered(result, attempts) == _covered(guards, attempts)
        for first, second in itertools.combinations(result, 2):
            assert merge_pair(first, second) is None


class TestGuardProperties:
    @given(guards)
    def test_guard_implies_itself(self, guard):
        assert guard.implies(guard)

    @given(guards)
    def test_everything_implies_true(self, guard):
        assert guard.implies(Guard.TRUE)
        assert guard.compatible_with(Guard.TRUE)

    @given(guards, literals)
    def test_extension_implies_base(self, guard, literal):
        if guard.value_of(literal.attempt) not in (None, literal.faulty):
            return  # would contradict
        extended = guard.extended(literal)
        assert extended.implies(guard)
        assert len(extended) >= len(guard)

    @given(guard_and_literal())
    def test_extended_matches_constructor(self, drawn):
        guard, literal = drawn
        try:
            expected = Guard(guard.literals + (literal,))
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                guard.extended(literal)
            assert str(raised.value) == str(error)
            return
        extended = guard.extended(literal)
        assert extended.literals == expected.literals
        assert str(extended) == str(expected)
        assert hash(extended) == hash(expected)
        for attempt in {lit.attempt for lit in expected.literals}:
            assert extended.value_of(attempt) == expected.value_of(attempt)
        assert pickle.dumps(extended) == pickle.dumps(expected)

    @given(guards, guards)
    def test_union_implies_both_when_compatible(self, a, b):
        if not a.compatible_with(b):
            return
        union = a.union(b)
        assert union.implies(a)
        assert union.implies(b)

    @given(guards, guards)
    def test_compatibility_symmetric(self, a, b):
        assert a.compatible_with(b) == b.compatible_with(a)

    @given(guards, guards)
    def test_mutual_implication_is_equality(self, a, b):
        if a.implies(b) and b.implies(a):
            assert a == b
            assert hash(a) == hash(b)

    @given(guards)
    def test_satisfied_by_own_assignment(self, guard):
        assignment = {lit.attempt: lit.faulty for lit in guard.literals}
        assert guard.satisfied_by(assignment)
        assert guard.decidable_with(assignment)

    @given(guards, literals)
    def test_negated_literal_incompatible(self, guard, literal):
        if guard.value_of(literal.attempt) is not None:
            return
        a = guard.extended(literal)
        b = guard.extended(literal.negated())
        assert not a.compatible_with(b)

    @given(guards)
    def test_fault_count_bounded_by_length(self, guard):
        assert 0 <= guard.fault_count() <= len(guard)
