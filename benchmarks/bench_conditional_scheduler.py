"""Ablation: cost of exact conditional scheduling vs the fault budget.

Paper §3.3 observes that "the number of execution scenarios grows
exponentially with the number of processes and the number of tolerated
transient faults" — the very reason the optimization loops use the
estimate. This benchmark measures that growth (contexts explored and
wall time vs ``k``) and the price of transparency's frozen fixpoint.
The transparency + checkpointing + hybrid instance carries the floor
(``tables_per_sec`` in ``floors.json``): its frozen pins need four
fixpoint passes, each re-exploring the whole context tree. It times
the raw tables (``compress=False``), so the rate is the exact
scheduler's own.
"""

from __future__ import annotations

import pytest

from repro.model import FaultModel, Transparency
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.schedule import CopyMapping, synthesize_schedule
from repro.schedule.conditional import ConditionalScheduler
from repro.workloads import GeneratorConfig, generate_workload


def _instance(processes: int = 8):
    app, arch = generate_workload(GeneratorConfig(
        processes=processes, nodes=2, seed=77, layer_width=3))
    return app, arch


@pytest.mark.parametrize("k", [1, 2, 3])
def test_conditional_scheduler_scaling_in_k(benchmark, k):
    app, arch = _instance()
    policies = PolicyAssignment.uniform(app,
                                        ProcessPolicy.re_execution(k))
    mapping = CopyMapping.from_process_map(
        {name: arch.node_names[i % 2]
         for i, name in enumerate(app.process_names)}, policies)
    fault_model = FaultModel(k=k)

    schedule = benchmark(
        synthesize_schedule, app, arch, mapping, policies, fault_model,
        max_contexts=500_000)
    benchmark.extra_info["k"] = k
    benchmark.extra_info["scenarios"] = schedule.scenario_count
    benchmark.extra_info["entries"] = len(schedule.entries)
    assert schedule.meets_deadline


@pytest.mark.parametrize("frozen", ["none", "full"])
def test_transparency_fixpoint_cost(benchmark, frozen):
    app, arch = _instance()
    k = 2
    policies = PolicyAssignment.uniform(app,
                                        ProcessPolicy.re_execution(k))
    mapping = CopyMapping.from_process_map(
        {name: arch.node_names[i % 2]
         for i, name in enumerate(app.process_names)}, policies)
    transparency = (Transparency.full(app) if frozen == "full"
                    else Transparency.none())

    schedule = benchmark(
        synthesize_schedule, app, arch, mapping, policies,
        FaultModel(k=k), transparency, max_contexts=500_000)
    benchmark.extra_info["frozen"] = frozen
    benchmark.extra_info["worst_case"] = round(
        schedule.worst_case_length, 1)
    benchmark.extra_info["guard_columns"] = len(
        {e.guard for e in schedule.entries})


def test_transparency_checkpoint_hybrid_tables(benchmark, monkeypatch):
    """Checkpointing and replication + checkpointing hybrids in turn,
    every other process and message frozen, k=2; raw tables."""
    app, arch = _instance()
    k = 2
    policies = PolicyAssignment({
        name: (ProcessPolicy.checkpointing(k, 2) if i % 2 == 0
               else ProcessPolicy.replication_and_checkpointing(
                   k, 1, checkpoints=2))
        for i, name in enumerate(app.process_names)})
    mapping = CopyMapping({
        (name, copy): arch.node_names[(i + copy) % 2]
        for i, name in enumerate(app.process_names)
        for copy in range(len(policies.of(name).copies))})
    transparency = Transparency(app.process_names[::2],
                                app.message_names[::2])
    args = (app, arch, mapping, policies, FaultModel(k=k), transparency)

    passes = []
    run_pass = ConditionalScheduler._run_pass
    with monkeypatch.context() as patch:
        patch.setattr(ConditionalScheduler, "_run_pass",
                      lambda scheduler: passes.append(run_pass(scheduler)))
        synthesize_schedule(*args, max_contexts=500_000, compress=False)
    assert len(passes) >= 2

    schedule = benchmark(synthesize_schedule, *args, max_contexts=500_000,
                         compress=False)
    benchmark.extra_info["fixpoint_passes"] = len(passes)
    benchmark.extra_info["scenarios"] = schedule.scenario_count
    benchmark.extra_info["entries"] = len(schedule.entries)
    benchmark.extra_info["tables_per_sec"] = round(
        1.0 / benchmark.stats.stats.min, 2)
    assert schedule.meets_deadline
