"""Unit tests for the discrete-event runtime simulator (paper §5.2)."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.ftcpg import FaultPlan
from repro.kernels.batch import BatchedSimulator
from repro.model import (
    Application,
    Architecture,
    BusSpec,
    FaultModel,
    Message,
    Node,
    Process,
)
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.runtime import simulate
from repro.schedule import CopyMapping, synthesize_schedule
from repro.schedule.table import EntryKind
from repro.ftcpg.conditions import AttemptId


@pytest.fixture
def cross_setup():
    app = Application(
        [Process("A", {"N1": 10.0}, mu=1.0),
         Process("B", {"N2": 10.0}, mu=1.0)],
        [Message("m", "A", "B", size_bytes=4)],
        deadline=500)
    arch = Architecture([Node("N1"), Node("N2")],
                        BusSpec(("N1", "N2"), slot_length=2.0))
    policies = PolicyAssignment.uniform(app, ProcessPolicy.re_execution(1))
    mapping = CopyMapping.from_process_map({"A": "N1", "B": "N2"},
                                           policies)
    fault_model = FaultModel(k=1)
    schedule = synthesize_schedule(app, arch, mapping, policies,
                                   fault_model)
    return app, arch, mapping, policies, fault_model, schedule


class TestBasicSimulation:
    def test_fault_free(self, cross_setup):
        app, arch, mapping, policies, fm, schedule = cross_setup
        result = simulate(app, arch, mapping, policies, fm, schedule,
                          FaultPlan({}))
        assert result.ok, result.errors
        assert result.completed["A"] == pytest.approx(10.0)
        assert result.makespan <= schedule.worst_case_length + 1e-9

    def test_single_fault_on_producer(self, cross_setup):
        app, arch, mapping, policies, fm, schedule = cross_setup
        result = simulate(app, arch, mapping, policies, fm, schedule,
                          FaultPlan({("A", 0): (1,)}))
        assert result.ok, result.errors
        # Retry: 10 (failed) + mu 1 + 10 = 21.
        assert result.completed["A"] == pytest.approx(21.0)

    def test_single_fault_on_consumer(self, cross_setup):
        app, arch, mapping, policies, fm, schedule = cross_setup
        result = simulate(app, arch, mapping, policies, fm, schedule,
                          FaultPlan({("B", 0): (1,)}))
        assert result.ok, result.errors
        assert result.completed["B"] > result.completed["A"]

    def test_over_budget_plan_flagged(self, cross_setup):
        app, arch, mapping, policies, fm, schedule = cross_setup
        result = simulate(app, arch, mapping, policies, fm, schedule,
                          FaultPlan({("A", 0): (1,), ("B", 0): (1,)}))
        assert not result.ok

    def test_attempt_start_lookup(self, cross_setup):
        app, arch, mapping, policies, fm, schedule = cross_setup
        result = simulate(app, arch, mapping, policies, fm, schedule,
                          FaultPlan({}))
        assert result.start_of_attempt(
            AttemptId("A", 0, 1, 1)) == pytest.approx(0.0)
        assert result.start_of_attempt(AttemptId("A", 0, 1, 2)) is None


class TestTamperedTables:
    """The simulator must reject inconsistent tables — that is its job."""

    def _tamper(self, schedule, predicate, **changes):
        from dataclasses import replace as dc_replace
        entries = []
        done = False
        for entry in schedule.entries:
            if not done and predicate(entry):
                entries.append(dc_replace(entry, **changes))
                done = True
            else:
                entries.append(entry)
        assert done, "no entry matched the tamper predicate"
        return dc_replace(schedule, entries=tuple(entries))

    def test_overlap_detected(self, cross_setup):
        app, arch, mapping, policies, fm, schedule = cross_setup
        bad = self._tamper(
            schedule,
            lambda e: (e.kind is EntryKind.ATTEMPT
                       and e.attempt.process == "B"
                       and e.attempt.attempt == 2),
            start=0.0)
        result = simulate(app, arch, mapping, policies, fm, bad,
                          FaultPlan({("B", 0): (1,)}))
        assert any("starts before" in err or "overlaps" in err
                   for err in result.errors)

    def test_missing_input_detected(self, cross_setup):
        app, arch, mapping, policies, fm, schedule = cross_setup
        bad = self._tamper(
            schedule,
            lambda e: (e.kind is EntryKind.ATTEMPT
                       and e.attempt.process == "B"
                       and e.attempt.attempt == 1
                       and e.guard.fault_count() == 0),
            start=1.0)
        result = simulate(app, arch, mapping, policies, fm, bad,
                          FaultPlan({}))
        assert any("without input" in err for err in result.errors)

    def test_undecidable_guard_detected(self, cross_setup):
        app, arch, mapping, policies, fm, schedule = cross_setup
        # Move a consumer entry guarded on A's condition to a start
        # before the condition broadcast can possibly arrive on N2.
        guarded = [e for e in schedule.entries
                   if e.kind is EntryKind.ATTEMPT
                   and e.attempt.process == "B"
                   and any(literal.attempt.process == "A"
                           for literal in e.guard.literals)]
        assert guarded
        target = guarded[0]
        bad = self._tamper(schedule, lambda e: e is target, start=0.5)
        plan = (FaultPlan({("A", 0): (1,)})
                if target.guard.fault_count() else FaultPlan({}))
        result = simulate(app, arch, mapping, policies, fm, bad, plan)
        assert any("only known at" in err or "never known" in err
                   or "without input" in err for err in result.errors)

    def test_missed_deadline_detected(self, cross_setup):
        app, arch, mapping, policies, fm, schedule = cross_setup
        from dataclasses import replace as dc_replace
        tight = dc_replace(schedule, deadline=5.0)
        short_app = app.with_deadline(5.0)
        result = simulate(short_app, arch, mapping, policies, fm, tight,
                          FaultPlan({}))
        assert any("deadline" in err for err in result.errors)


class TestReplicationRuntime:
    def test_dead_replica_is_silent(self, two_nodes):
        app = Application(
            [Process("A", {"N1": 10.0, "N2": 12.0}),
             Process("B", {"N1": 5.0, "N2": 5.0})],
            [Message("m", "A", "B", size_bytes=4)],
            deadline=500)
        policies = PolicyAssignment.build(
            app, ProcessPolicy.replication(1),
            {"B": ProcessPolicy.re_execution(1)})
        mapping = CopyMapping({("A", 0): "N1", ("A", 1): "N2",
                               ("B", 0): "N1"})
        fm = FaultModel(k=1)
        schedule = synthesize_schedule(app, two_nodes, mapping, policies,
                                       fm)
        # Kill the co-located copy: B must still run using N2's copy.
        result = simulate(app, two_nodes, mapping, policies, fm, schedule,
                          FaultPlan({("A", 0): (1,)}))
        assert result.ok, result.errors
        assert "A" in result.completed
        # And kill the remote copy instead.
        result2 = simulate(app, two_nodes, mapping, policies, fm,
                           schedule, FaultPlan({("A", 1): (1,)}))
        assert result2.ok, result2.errors

    def test_all_copies_dead_reported(self, two_nodes):
        app = Application([Process("A", {"N1": 10.0, "N2": 12.0})],
                          deadline=500)
        policies = PolicyAssignment.uniform(app,
                                            ProcessPolicy.replication(1))
        mapping = CopyMapping({("A", 0): "N1", ("A", 1): "N2"})
        fm = FaultModel(k=1)
        schedule = synthesize_schedule(app, two_nodes, mapping, policies,
                                       fm)
        # Two faults exceed the budget; the plan is rejected AND the
        # process never completes.
        result = simulate(app, two_nodes, mapping, policies, fm, schedule,
                          FaultPlan({("A", 0): (1,), ("A", 1): (1,)}))
        assert any("never completed" in err for err in result.errors)


class TestFloatRobustness:
    """Near-tie start times must not flip the replay order or raise
    spurious overlap/missing-input errors (platform libm jitter)."""

    def _jittered(self, schedule, magnitude: float):
        from dataclasses import replace as dc_replace
        entries = tuple(
            dc_replace(entry,
                       start=entry.start
                       + (magnitude if index % 2 else -magnitude))
            for index, entry in enumerate(schedule.entries)
        )
        return dc_replace(schedule, entries=entries)

    def test_sub_eps_jitter_is_invisible(self, cross_setup):
        app, arch, mapping, policies, fm, schedule = cross_setup
        jittered = self._jittered(schedule, 1e-9)
        for plan in (FaultPlan({}), FaultPlan({("A", 0): (1,)}),
                     FaultPlan({("B", 0): (1,)}),
                     FaultPlan({("A", 0): (1,), ("B", 0): (1,)})):
            clean = simulate(app, arch, mapping, policies, fm,
                             schedule, plan)
            noisy = simulate(app, arch, mapping, policies, fm,
                             jittered, plan)
            assert noisy.errors == clean.errors
            if clean.ok:
                assert noisy.completed == pytest.approx(clean.completed)

    def test_replay_order_groups_near_ties(self, cross_setup):
        """Bus effects still replay before attempts whose quantized
        start is equal, even when the raw floats differ by rounding."""
        app, arch, mapping, policies, fm, schedule = cross_setup
        from dataclasses import replace as dc_replace
        entries = []
        for entry in schedule.entries:
            if entry.kind is EntryKind.MESSAGE:
                # A message nudged infinitesimally *after* its
                # consumers' start must still deliver to them.
                entries.append(dc_replace(entry,
                                          start=entry.start + 1e-9))
            else:
                entries.append(entry)
        nudged = dc_replace(schedule, entries=tuple(entries))
        result = simulate(app, arch, mapping, policies, fm, nudged,
                          FaultPlan({}))
        assert result.ok, result.errors


NAMING_NOTHING = [
    pytest.param({("PX", 0): (1,)}, id="unknown-process"),
    # Fig. 5's P1 has one copy and one segment.
    pytest.param({("P1", 5): (1,)}, id="unknown-copy"),
    pytest.param({("P1", 0): (0, 1)}, id="unknown-segment"),
]


class TestPlansNamingNothing:
    """A fault count on a process, copy or segment the design lacks
    used to replay fault-free (ok, makespan 159.0 on Fig. 5) while the
    plan still counted it as one fault."""

    @pytest.mark.parametrize("faults", NAMING_NOTHING)
    def test_simulate_rejects(self, fig5_design, faults):
        with pytest.raises(ValidationError):
            simulate(*fig5_design, FaultPlan(faults))

    @pytest.mark.parametrize("faults", NAMING_NOTHING)
    def test_batched_kernel_rejects(self, fig5_design, faults):
        batched = BatchedSimulator(*fig5_design)
        with pytest.raises(ValidationError):
            batched.simulate_plan(FaultPlan(faults))
