"""Unit tests for the exhaustive tolerance verifier."""

from __future__ import annotations

import pytest

from repro.errors import ToleranceViolationError
from repro.model import (
    Application,
    Architecture,
    BusSpec,
    FaultModel,
    Message,
    Node,
    Process,
    Transparency,
)
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.runtime import verify_tolerance, verify_tolerance_sampled
from repro.schedule import CopyMapping, synthesize_schedule


@pytest.fixture
def pipeline_setup():
    app = Application(
        [Process("A", {"N1": 10.0}, mu=1.0),
         Process("B", {"N1": 8.0, "N2": 8.0}, mu=1.0),
         Process("C", {"N2": 6.0}, mu=1.0)],
        [Message("m1", "A", "B", size_bytes=4),
         Message("m2", "B", "C", size_bytes=4)],
        deadline=500)
    arch = Architecture([Node("N1"), Node("N2")],
                        BusSpec(("N1", "N2"), slot_length=2.0))
    return app, arch


class TestVerification:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_reexecution_tolerates_k(self, pipeline_setup, k):
        app, arch = pipeline_setup
        policies = PolicyAssignment.uniform(app,
                                            ProcessPolicy.re_execution(k))
        mapping = CopyMapping.from_process_map(
            {"A": "N1", "B": "N1", "C": "N2"}, policies)
        fm = FaultModel(k=k)
        schedule = synthesize_schedule(app, arch, mapping, policies, fm)
        report = verify_tolerance(app, arch, mapping, policies, fm,
                                  schedule)
        assert report.ok, report.failures[:1]
        report.raise_on_failure()
        assert report.worst_makespan <= schedule.worst_case_length + 1e-9

    def test_checkpointing_tolerates(self, pipeline_setup):
        app, arch = pipeline_setup
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.checkpointing(2, 2))
        mapping = CopyMapping.from_process_map(
            {"A": "N1", "B": "N1", "C": "N2"}, policies)
        fm = FaultModel(k=2)
        schedule = synthesize_schedule(app, arch, mapping, policies, fm)
        report = verify_tolerance(app, arch, mapping, policies, fm,
                                  schedule)
        assert report.ok
        # 1 fault-free + 6 single-fault + 21 two-fault distributions.
        assert report.scenarios == 28

    def test_mixed_policies_tolerate(self, pipeline_setup):
        app, arch = pipeline_setup
        policies = PolicyAssignment.build(
            app, ProcessPolicy.re_execution(1),
            {"B": ProcessPolicy.replication(1)})
        mapping = CopyMapping({("A", 0): "N1", ("B", 0): "N1",
                               ("B", 1): "N2", ("C", 0): "N2"})
        fm = FaultModel(k=1)
        schedule = synthesize_schedule(app, arch, mapping, policies, fm)
        report = verify_tolerance(app, arch, mapping, policies, fm,
                                  schedule)
        assert report.ok, (report.failures[:1] or
                           report.frozen_violations[:1])

    def test_transparency_contract_checked(self, pipeline_setup):
        app, arch = pipeline_setup
        policies = PolicyAssignment.uniform(app,
                                            ProcessPolicy.re_execution(2))
        mapping = CopyMapping.from_process_map(
            {"A": "N1", "B": "N1", "C": "N2"}, policies)
        fm = FaultModel(k=2)
        transparency = Transparency(frozen_processes=("C",),
                                    frozen_messages=("m2",))
        schedule = synthesize_schedule(app, arch, mapping, policies, fm,
                                       transparency)
        report = verify_tolerance(app, arch, mapping, policies, fm,
                                  schedule, transparency)
        assert report.ok, (report.failures[:1] or
                           report.frozen_violations)

    def test_frozen_violation_detected_on_unfrozen_schedule(
            self, pipeline_setup):
        app, arch = pipeline_setup
        policies = PolicyAssignment.uniform(app,
                                            ProcessPolicy.re_execution(1))
        mapping = CopyMapping.from_process_map(
            {"A": "N1", "B": "N1", "C": "N2"}, policies)
        fm = FaultModel(k=1)
        # Schedule WITHOUT transparency, then verify AS IF C was frozen:
        # C's start varies with upstream faults => violation reported.
        schedule = synthesize_schedule(app, arch, mapping, policies, fm)
        claimed = Transparency(frozen_processes=("C",))
        report = verify_tolerance(app, arch, mapping, policies, fm,
                                  schedule, claimed)
        assert report.frozen_violations
        with pytest.raises(ToleranceViolationError):
            report.raise_on_failure()

    def test_sampled_audits_transparency(self, pipeline_setup):
        # The sampled verifier audits the transparency claim on the
        # scenarios it draws, exactly as the exhaustive one does.
        app, arch = pipeline_setup
        policies = PolicyAssignment.uniform(app,
                                            ProcessPolicy.re_execution(1))
        mapping = CopyMapping.from_process_map(
            {"A": "N1", "B": "N1", "C": "N2"}, policies)
        fm = FaultModel(k=1)
        schedule = synthesize_schedule(app, arch, mapping, policies, fm)
        claimed = Transparency(frozen_processes=("C",))
        exhaustive = verify_tolerance(app, arch, mapping, policies, fm,
                                      schedule, claimed)
        sampled = verify_tolerance_sampled(
            app, arch, mapping, policies, fm, schedule, claimed,
            samples=50, seed=0)
        assert sampled.scenarios == exhaustive.scenarios == 4
        assert not sampled.ok
        assert sampled.frozen_violations == exhaustive.frozen_violations
        assert "frozen process 'C' (copy 0) started at " \
            "[26.0, 30.0, 34.0]" in sampled.frozen_violations[0]

    def test_scenario_limit(self, pipeline_setup):
        app, arch = pipeline_setup
        policies = PolicyAssignment.uniform(app,
                                            ProcessPolicy.re_execution(2))
        mapping = CopyMapping.from_process_map(
            {"A": "N1", "B": "N1", "C": "N2"}, policies)
        fm = FaultModel(k=2)
        schedule = synthesize_schedule(app, arch, mapping, policies, fm)
        with pytest.raises(ToleranceViolationError):
            verify_tolerance(app, arch, mapping, policies, fm, schedule,
                             max_scenarios=2)
