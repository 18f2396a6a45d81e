"""Shared fixtures: small canonical models used across the suite."""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest

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
from repro.schedule import CopyMapping, EstimatorState, synthesize_schedule
from repro.workloads.presets import fig5_example


@pytest.fixture
def two_nodes() -> Architecture:
    """Two nodes, one slot each, slot length 2."""
    return Architecture(
        [Node("N1"), Node("N2")],
        BusSpec(slot_order=("N1", "N2"), slot_length=2.0),
    )


@pytest.fixture(scope="module")
def fig5_design():
    """The paper's Fig. 5 design under re-execution: ``(app, arch,
    mapping, policies, fault_model, schedule)``."""
    app, arch, fault_model, transparency, mapping = fig5_example()
    policies = PolicyAssignment.uniform(
        app, ProcessPolicy.re_execution(fault_model.k))
    schedule = synthesize_schedule(app, arch, mapping, policies,
                                   fault_model, transparency)
    return app, arch, mapping, policies, fault_model, schedule


@pytest.fixture
def chain_app() -> Application:
    """P1 -> P2 -> P3 chain with small overheads."""
    processes = [
        Process("P1", {"N1": 10.0, "N2": 12.0}, alpha=1.0, mu=1.0, chi=1.0),
        Process("P2", {"N1": 20.0, "N2": 18.0}, alpha=1.0, mu=1.0, chi=1.0),
        Process("P3", {"N1": 10.0, "N2": 10.0}, alpha=1.0, mu=1.0, chi=1.0),
    ]
    messages = [
        Message("m1", "P1", "P2", size_bytes=4),
        Message("m2", "P2", "P3", size_bytes=4),
    ]
    return Application(processes, messages, deadline=500.0, name="chain")


@pytest.fixture
def fork_join_app() -> Application:
    """Diamond: P1 -> {P2, P3} -> P4."""
    processes = [
        Process("P1", {"N1": 10.0, "N2": 10.0}, mu=2.0),
        Process("P2", {"N1": 15.0, "N2": 15.0}, mu=2.0),
        Process("P3", {"N1": 12.0, "N2": 12.0}, mu=2.0),
        Process("P4", {"N1": 8.0, "N2": 8.0}, mu=2.0),
    ]
    messages = [
        Message("m1", "P1", "P2", size_bytes=4),
        Message("m2", "P1", "P3", size_bytes=4),
        Message("m3", "P2", "P4", size_bytes=4),
        Message("m4", "P3", "P4", size_bytes=4),
    ]
    return Application(processes, messages, deadline=400.0,
                       name="fork-join")


def make_mapping(app: Application, policies: PolicyAssignment,
                 spread: tuple[str, ...] = ("N1", "N2")) -> CopyMapping:
    """Deterministic round-robin mapping helper for tests."""
    assignments = {}
    counter = 0
    for name, policy in policies.items():
        for copy in range(len(policy.copies)):
            assignments[(name, copy)] = spread[counter % len(spread)]
            counter += 1
    return CopyMapping(assignments)


@pytest.fixture
def uniform_reexec():
    """PolicyAssignment factory: re-execution with a given k."""
    def build(app: Application, k: int) -> PolicyAssignment:
        return PolicyAssignment.uniform(app, ProcessPolicy.re_execution(k))
    return build


@pytest.fixture
def fm2() -> FaultModel:
    """Fault model with k = 2."""
    return FaultModel(k=2)


@pytest.fixture
def full_recompute(monkeypatch):
    """Context manager that swaps the incremental estimate path for
    its oracle: inside the block, ``EstimatorState.reevaluate`` (what
    every ``Evaluator.estimate_move`` miss runs) returns
    ``EstimatorState.compute`` of the moved solution. The patch only
    reaches in-process evaluation, so callers run with one worker,
    and no disk cache may serve an estimate; the block fails if no
    miss reached the substitute."""
    from repro.eval.diskcache import CACHE_DIR_ENV

    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)

    @contextmanager
    def forced():
        calls = []

        def full(state, policies, mapping, changed):
            calls.append(changed)
            return EstimatorState.compute(
                state.app, state.arch, mapping, policies,
                FaultModel(k=state.k), priorities=state.priorities,
                bus_contention=state.bus_contention,
                slack_sharing=state.slack_sharing)

        with monkeypatch.context() as patch:
            patch.setattr(EstimatorState, "reevaluate", full)
            yield
        assert calls, "no estimate_move miss ran the full recompute"
    return forced


@pytest.fixture
def derivations(monkeypatch) -> Counter:
    """Counts design derivations of the campaign and verify runners:
    seed-derived tabu runs (``synthesize_campaign_design``, which both
    reach through ``campaigns.runner.build_design``) and exact table
    builds (``eval.core.synthesize_schedule``). No disk cache may
    serve a table in between."""
    import repro.campaigns.runner as campaign_runner
    import repro.eval.core as eval_core
    from repro.eval.diskcache import CACHE_DIR_ENV

    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    calls: Counter = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(campaign_runner, "synthesize_campaign_design")
    counting(eval_core, "synthesize_schedule")
    return calls
