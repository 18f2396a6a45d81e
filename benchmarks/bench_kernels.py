"""Speedups of the array-compiled kernels over the pure-Python oracle.

Two floors, both ratios (wall clock is CI noise; a collapsing speedup
is a real regression on any machine):

* the estimator kernel (``repro.kernels.estimator``) against the
  pure-Python ``_EstimationRun`` on a Fig. 7-scale estimation — same
  :class:`~repro.schedule.estimation.FtEstimate`, bit for bit;
* the batched scenario kernel (``repro.kernels.batch``) against
  per-plan :func:`~repro.runtime.simulate` on one synthesized design —
  same :class:`~repro.runtime.SimulationResult` per plan, bit for bit.

The batched floor (20x) sits at about half the measured speedup
(40-42x on a 2-vCPU VM, reported as ``extra_info["speedup"]``): the
oracle baseline is timed on a bounded plan subset to keep CI time
sane, so the floor absorbs subset noise, yet a guard evaluator that
re-checks every guard mentioning a faulty copy (measured 10-12x)
fails it.

Run:  pytest benchmarks/bench_kernels.py --benchmark-only

``REPRO_BENCH_PROFILE=full`` widens the workload (default: quick).
"""

from __future__ import annotations

import os
import time
from itertools import islice

from repro.campaigns.runner import synthesize_campaign_design
from repro.eval.core import EvaluatorPool
from repro.ftcpg import iter_fault_plans
from repro.model import FaultModel
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.runtime import simulate
from repro.schedule import estimate_ft_schedule
from repro.schedule.estimation import _EstimationRun
from repro.schedule.priorities import partial_critical_path_priorities
from repro.synthesis import initial_mapping
from repro.synthesis.tabu import TabuSettings
from repro.verify.runner import load_verify_workload
from repro.workloads import GeneratorConfig, generate_workload

QUICK = os.environ.get("REPRO_BENCH_PROFILE", "quick") != "full"

#: Above Fig. 7 territory (20..80 processes): the estimator kernel's
#: advantage grows with problem size, so measure where it is stable.
EST_PROCESSES = 100 if QUICK else 200
EST_REPS = 25
EST_TRIALS = 5
BATCH_PROCESSES = 25 if QUICK else 40
#: Oracle plans timed (bounds CI time); kernel runs the full sample.
ORACLE_PLANS = 30 if QUICK else 60
KERNEL_PLANS = 300 if QUICK else 600

#: Acceptance floors (both profiles). The estimator floor is modest —
#: the kernel reuses the oracle's bus/send machinery and only the
#: table-driven schedule loop accelerates (measured ~1.4x); the
#: batched floor is half the measured ~40x. Both absorb shared-runner
#: noise via interleaved best-of-N timing.
MIN_ESTIMATOR_SPEEDUP = 1.1
MIN_BATCH_SPEEDUP = 20.0


def _oracle_estimate(app, arch, mapping, policies, fault_model):
    """``estimate_ft_schedule`` through the pure-Python oracle: one
    fresh ``_EstimationRun`` with partial-critical-path priorities."""
    priorities = partial_critical_path_priorities(app, arch)
    run = _EstimationRun(app, arch, mapping, policies, fault_model.k,
                         dict(priorities), True, "max")
    return run.execute().estimate


def test_estimator_kernel_speedup(benchmark):
    app, arch = generate_workload(GeneratorConfig(
        processes=EST_PROCESSES, nodes=4, seed=13))
    k = 4
    policies = PolicyAssignment.uniform(app,
                                        ProcessPolicy.re_execution(k))
    mapping = initial_mapping(app, arch, policies)
    fault_model = FaultModel(k=k)

    def estimate_once():
        return estimate_ft_schedule(app, arch, mapping, policies,
                                    fault_model, bus_contention=True)

    def oracle_once():
        return _oracle_estimate(app, arch, mapping, policies,
                                fault_model)

    def timed_reps(estimate):
        started = time.perf_counter()
        for __ in range(EST_REPS):
            estimate()
        return time.perf_counter() - started

    oracle = oracle_once()

    # Identical bits before any timing matters.
    assert estimate_once() == oracle

    # Interleaved best-of-N: each trial times the oracle and the
    # kernel back to back, so a load spike on a shared runner hits
    # both sides and the min-based ratio stays honest.
    oracle_time = kernel_time = float("inf")
    for __ in range(EST_TRIALS):
        oracle_time = min(oracle_time, timed_reps(oracle_once))
        kernel_time = min(kernel_time, timed_reps(estimate_once))

    kernel = benchmark.pedantic(estimate_once, rounds=3, iterations=1)
    assert kernel == oracle

    speedup = oracle_time / kernel_time if kernel_time else 0.0
    benchmark.extra_info["processes"] = EST_PROCESSES
    benchmark.extra_info["reps"] = EST_REPS
    benchmark.extra_info["trials"] = EST_TRIALS
    benchmark.extra_info["oracle_seconds"] = round(oracle_time, 3)
    benchmark.extra_info["kernel_seconds"] = round(kernel_time, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= MIN_ESTIMATOR_SPEEDUP, (
        f"estimator kernel speedup {speedup:.2f} below floor "
        f"{MIN_ESTIMATOR_SPEEDUP} (oracle {oracle_time:.3f}s, kernel "
        f"{kernel_time:.3f}s over {EST_REPS} estimations)")


def _batch_design():
    """One synthesized Fig. 7-scale design (same recipe as
    ``bench_verify``)."""
    workload = {"processes": BATCH_PROCESSES, "nodes": 3, "seed": 1}
    app, arch, __ = load_verify_workload(workload)
    pool = EvaluatorPool()
    settings = TabuSettings(iterations=6, neighborhood=6,
                            bus_contention=False)
    result = synthesize_campaign_design(app, arch, 2, "MXR", settings,
                                        1, pool=pool)
    fault_model = FaultModel(k=2)
    evaluator = pool.evaluator_for(app, arch, fault_model)
    schedule = evaluator.exact_schedule(result.policies,
                                        result.mapping)
    return app, arch, result.mapping, result.policies, fault_model, \
        schedule


def test_batched_scenarios_speedup(benchmark):
    from repro.kernels.batch import BatchedSimulator

    app, arch, mapping, policies, fm, schedule = _batch_design()
    plans = list(islice(iter_fault_plans(app, policies, fm.k),
                        KERNEL_PLANS))
    subset = plans[:ORACLE_PLANS]

    started = time.perf_counter()
    oracle = [simulate(app, arch, mapping, policies, fm, schedule,
                       plan) for plan in subset]
    oracle_per_plan = (time.perf_counter() - started) / len(subset)

    def run():
        batched = BatchedSimulator(app, arch, mapping, policies, fm,
                                   schedule)
        return [batched.simulate_plan(plan) for plan in plans]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    kernel_per_plan = benchmark.stats.stats.total / len(plans)

    # Identical bits per plan before the ratio means anything.
    assert results[:len(subset)] == oracle

    speedup = (oracle_per_plan / kernel_per_plan
               if kernel_per_plan else 0.0)
    benchmark.extra_info["processes"] = BATCH_PROCESSES
    benchmark.extra_info["plans"] = len(plans)
    benchmark.extra_info["oracle_plans"] = len(subset)
    benchmark.extra_info["oracle_evals_per_sec"] = round(
        1.0 / oracle_per_plan, 1)
    benchmark.extra_info["kernel_evals_per_sec"] = round(
        1.0 / kernel_per_plan, 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batched scenario speedup {speedup:.2f} below floor "
        f"{MIN_BATCH_SPEEDUP} (oracle {oracle_per_plan * 1e3:.1f} "
        f"ms/plan, kernel {kernel_per_plan * 1e3:.1f} ms/plan)")
