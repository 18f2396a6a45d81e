"""Unit tests for schedule-table metrics (paper §5.2/§6 trade-offs)."""

from __future__ import annotations

import pytest

from repro.ftcpg.conditions import AttemptId, ConditionLiteral, Guard
from repro.model import FaultModel, Transparency
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.schedule import (
    CopyMapping,
    schedule_metrics,
    synthesize_schedule,
)
from repro.schedule.metrics import BYTES_PER_COLUMN, BYTES_PER_ENTRY
from repro.schedule.table import EntryKind, ScheduleSet, TableEntry
from repro.synthesis import initial_mapping
from repro.workloads import GeneratorConfig, generate_workload
from tests.test_conditional_scheduler import _grid_policy, _grid_transparency


@pytest.fixture(scope="module")
def instance():
    app, arch = generate_workload(GeneratorConfig(
        processes=6, nodes=2, seed=31, layer_width=3))
    k = 2
    policies = PolicyAssignment.uniform(app,
                                        ProcessPolicy.re_execution(k))
    mapping = CopyMapping.from_process_map(
        {name: arch.node_names[i % 2]
         for i, name in enumerate(app.process_names)}, policies)
    return app, arch, mapping, policies, FaultModel(k=k)


class TestMetrics:
    def test_basic_accounting(self, instance):
        app, arch, mapping, policies, fm = instance
        schedule = synthesize_schedule(app, arch, mapping, policies, fm)
        metrics = schedule_metrics(schedule)
        assert metrics.total_entries == len(schedule.entries)
        assert metrics.scenario_count == schedule.scenario_count
        assert metrics.worst_case_length == schedule.worst_case_length
        locations = {t.location for t in metrics.per_node}
        assert locations == set(schedule.locations)

    def test_memory_model(self, instance):
        app, arch, mapping, policies, fm = instance
        schedule = synthesize_schedule(app, arch, mapping, policies, fm)
        metrics = schedule_metrics(schedule)
        for table in metrics.per_node:
            assert table.memory_bytes == (
                table.entries * BYTES_PER_ENTRY
                + table.columns * BYTES_PER_COLUMN)
        assert metrics.total_memory_bytes == sum(
            t.memory_bytes for t in metrics.per_node)

    def test_overhead_ratio(self, instance):
        app, arch, mapping, policies, fm = instance
        schedule = synthesize_schedule(app, arch, mapping, policies, fm)
        metrics = schedule_metrics(schedule)
        assert metrics.overhead_ratio >= 1.0

    def test_transparency_shrinks_tables(self, instance):
        """The §6 trade-off: frozen schedules need smaller tables."""
        app, arch, mapping, policies, fm = instance
        free = schedule_metrics(
            synthesize_schedule(app, arch, mapping, policies, fm))
        frozen = schedule_metrics(
            synthesize_schedule(app, arch, mapping, policies, fm,
                                Transparency.full(app)))
        assert frozen.distinct_attempt_starts <= \
            free.distinct_attempt_starts
        assert frozen.worst_case_length >= free.worst_case_length - 1e-6

    def test_attempt_starts_within_eps_count_once(self):
        """Two starts of one attempt 2e-10 apart, on either side of a
        6-decimal rounding boundary, are one start."""
        attempt = AttemptId("P1", 0, 1, 1)

        def entry(start, guard):
            return TableEntry(kind=EntryKind.ATTEMPT, location="N1",
                              guard=guard, start=start, duration=2.0,
                              attempt=attempt, can_fail=True)

        near = ScheduleSet(
            entries=(entry(1.0000004999, Guard()),
                     entry(1.0000005001, Guard([ConditionLiteral(
                         AttemptId("P0", 0, 1, 1), True)])),
                     entry(5.0, Guard([ConditionLiteral(
                         AttemptId("P0", 0, 1, 1), False)]))),
            leaves=(), worst_case_length=7.0, fault_free_length=3.0,
            deadline=10.0)
        assert schedule_metrics(near).distinct_attempt_starts == 2

    def test_k_grows_tables(self, instance):
        app, arch, mapping, policies, fm = instance
        small = schedule_metrics(synthesize_schedule(
            app, arch, mapping,
            PolicyAssignment.uniform(app, ProcessPolicy.re_execution(1)),
            FaultModel(k=1)))
        large = schedule_metrics(synthesize_schedule(
            app, arch, mapping, policies, fm))
        assert large.total_entries > small.total_entries
        assert large.scenario_count > small.scenario_count


class TestGuardHashing:
    """``schedule_metrics`` hashes each guard object at most once: a
    guard's hash builds a frozenset of its literals, and the entries
    of one context share their guard object."""

    #: ``TestTableBytePins`` designs (processes, seed, k, policies,
    #: transparency), raw or compressed, with the metrics computed when
    #: every entry's guard was hashed twice: per table (location, rows,
    #: columns, entries), then distinct guards, distinct attempt starts
    #: and scenarios.
    CASES = [
        ((3, 1, 2, "ckpt", "full"), False,
         [("N1", 2, 30, 43), ("N2", 1, 21, 24), ("bus", 12, 27, 27)],
         48, 29, 28),
        ((3, 1, 2, "ckpt", "full"), True,
         [("N1", 2, 25, 34), ("N2", 1, 21, 24), ("bus", 12, 23, 24)],
         47, 29, 28),
        ((4, 5, 3, "mixed", "messages"), False,
         [("N1", 3, 63, 79), ("N2", 2, 35, 47), ("bus", 14, 54, 54)],
         91, 59, 55),
        ((4, 5, 3, "mixed", "messages"), True,
         [("N1", 3, 57, 73), ("N2", 2, 28, 40), ("bus", 14, 40, 41)],
         87, 59, 55),
        ((3, 4, 3, "mixed", "partial"), False,
         [("N1", 2, 50, 64), ("N2", 2, 7, 8), ("bus", 13, 34, 41)],
         53, 25, 34),
        ((3, 4, 3, "mixed", "partial"), True,
         [("N1", 2, 41, 45), ("N2", 2, 4, 5), ("bus", 13, 34, 38)],
         53, 25, 34),
    ]

    @pytest.mark.parametrize(
        "design,compress,tables,guards,starts,scenarios", CASES,
        ids=[f"{c[0][0]}p-s{c[0][1]}-k{c[0][2]}-{c[0][3]}-{c[0][4]}-"
             f"{'compressed' if c[1] else 'raw'}" for c in CASES])
    def test_each_guard_object_hashed_once(self, monkeypatch, design,
                                           compress, tables, guards,
                                           starts, scenarios):
        processes, seed, k, kind, mode = design
        app, arch = generate_workload(GeneratorConfig(
            processes=processes, nodes=2, seed=seed))
        policies = PolicyAssignment({
            name: _grid_policy(kind, k, index)
            for index, name in enumerate(app.process_names)})
        schedule = synthesize_schedule(
            app, arch, initial_mapping(app, arch, policies), policies,
            FaultModel(k=k), _grid_transparency(mode, app),
            compress=compress)
        hashed: list[int] = []
        guard_hash = Guard.__hash__

        def counting(guard):
            hashed.append(id(guard))
            return guard_hash(guard)

        monkeypatch.setattr(Guard, "__hash__", counting)
        metrics = schedule_metrics(schedule)
        monkeypatch.undo()
        assert hashed and len(hashed) == len(set(hashed))
        assert [(t.location, t.rows, t.columns, t.entries)
                for t in metrics.per_node] == tables
        assert metrics.distinct_guards == guards
        assert metrics.distinct_attempt_starts == starts
        assert metrics.scenario_count == scenarios
