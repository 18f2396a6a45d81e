"""Throughput of full slack-sharing estimates (paper §6).

Each benchmark repeats a from-scratch estimate of one unchanged
solution, i.e. one fresh ``_EstimationRun`` per call. This is not the
tabu inner loop: there, repeated solutions hit the evaluator cache and
one-move neighbours run the incremental ``reevaluate``
(``bench_incremental_eval.py`` times that path).
"""

from __future__ import annotations

import pytest

from repro.model import FaultModel
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.schedule import estimate_ft_schedule
from repro.synthesis import initial_mapping
from repro.workloads import GeneratorConfig, generate_workload


@pytest.mark.parametrize("size,policy", [
    (50, "reexec"),
    (100, "reexec"),
    (50, "replication"),
    (100, "replication"),
])
def test_estimation_throughput(benchmark, size, policy):
    app, arch = generate_workload(GeneratorConfig(
        processes=size, nodes=4, seed=13))
    k = 4
    process_policy = (ProcessPolicy.re_execution(k) if policy == "reexec"
                      else ProcessPolicy.replication(k))
    policies = PolicyAssignment.uniform(app, process_policy)
    mapping = initial_mapping(app, arch, policies)
    fault_model = FaultModel(k=k)

    estimate = benchmark(
        estimate_ft_schedule, app, arch, mapping, policies, fault_model,
        bus_contention=False)
    benchmark.extra_info["copies"] = policies.total_copies()
    benchmark.extra_info["schedule_length"] = round(
        estimate.schedule_length, 1)
    benchmark.extra_info["evals_per_sec"] = round(
        1.0 / benchmark.stats.stats.min, 1)
    assert estimate.schedule_length > 0


def test_estimation_with_bus_contention(benchmark):
    app, arch = generate_workload(GeneratorConfig(
        processes=60, nodes=4, seed=13))
    k = 3
    policies = PolicyAssignment.uniform(app,
                                        ProcessPolicy.re_execution(k))
    mapping = initial_mapping(app, arch, policies)

    estimate = benchmark(
        estimate_ft_schedule, app, arch, mapping, policies,
        FaultModel(k=k), bus_contention=True)
    benchmark.extra_info["schedule_length"] = round(
        estimate.schedule_length, 1)
    benchmark.extra_info["evals_per_sec"] = round(
        1.0 / benchmark.stats.stats.min, 1)
