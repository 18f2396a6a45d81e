"""Determinism guarantees: identical inputs must always produce
identical schedules, estimates and tables — the property that makes
the synthesized artifacts certifiable and the experiments
reproducible from their seeds."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.model import FaultModel
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.schedule import (
    CopyMapping,
    estimate_ft_schedule,
    synthesize_schedule,
)
from repro.synthesis import initial_mapping
from repro.workloads import GeneratorConfig, generate_workload

RELAXED = settings(max_examples=15, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def make(seed: int, k: int):
    app, arch = generate_workload(GeneratorConfig(
        processes=5, nodes=2, seed=seed, layer_width=3))
    policies = PolicyAssignment.uniform(app,
                                        ProcessPolicy.re_execution(k))
    mapping = initial_mapping(app, arch, policies)
    return app, arch, mapping, policies


class TestDeterminism:
    @RELAXED
    @given(seed=st.integers(0, 5_000), k=st.integers(1, 2))
    def test_conditional_schedule_identical(self, seed, k):
        app, arch, mapping, policies = make(seed, k)
        fm = FaultModel(k=k)
        a = synthesize_schedule(app, arch, mapping, policies, fm)
        b = synthesize_schedule(app, arch, mapping, policies, fm)
        assert len(a.entries) == len(b.entries)
        for ea, eb in zip(a.entries, b.entries):
            assert ea == eb
        assert a.worst_case_length == b.worst_case_length

    @RELAXED
    @given(seed=st.integers(0, 5_000), k=st.integers(0, 3))
    def test_estimate_identical(self, seed, k):
        app, arch, mapping, policies = make(seed, max(1, k))
        if k == 0:
            policies = PolicyAssignment.uniform(app,
                                                ProcessPolicy.none())
        fm = FaultModel(k=k)
        a = estimate_ft_schedule(app, arch, mapping, policies, fm)
        b = estimate_ft_schedule(app, arch, mapping, policies, fm)
        assert a.schedule_length == b.schedule_length
        assert a.timings == b.timings

    @RELAXED
    @given(seed=st.integers(0, 5_000))
    def test_fault_free_schedule_identical(self, seed):
        # The NFT schedule of the FTO metric: the estimator at k = 0.
        app, arch, mapping, _ = make(seed, 1)
        policies = PolicyAssignment.uniform(app, ProcessPolicy.none())
        flat = CopyMapping.from_process_map(
            {name: mapping.node_of(name, 0)
             for name in app.process_names}, policies)
        fm = FaultModel(k=0)
        a = estimate_ft_schedule(app, arch, flat, policies, fm)
        b = estimate_ft_schedule(app, arch, flat, policies, fm)
        assert a.timings == b.timings
        assert a.schedule_length == b.schedule_length

    @RELAXED
    @given(seed=st.integers(0, 5_000))
    def test_workload_generation_identical(self, seed):
        config = GeneratorConfig(processes=12, nodes=3, seed=seed)
        a, _ = generate_workload(config)
        b, _ = generate_workload(config)
        assert a.process_names == b.process_names
        assert [m.src for m in a.messages] == [m.src for m in b.messages]
        assert [p.wcet for p in a.processes] == \
            [p.wcet for p in b.processes]
