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
from repro.workloads import GeneratorConfig, generate_workload


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
