"""Throughput of the runtime simulator and the exhaustive verifier on
the paper's Fig. 5 example (15 fault scenarios, k = 2), plus the
throughput floor of the DES forward path.

The event-driven core executes the DES-only axes (intermittent
windows, corrupted slots, release jitter) forward through its
compiled activation stream; table replay cannot express them. The
floor compares the two on the same Fig. 7-scale design: replay
(``simulate()``) over a sample of base fault plans against
``DesSimulator`` over the same plans extended with one window, one
corrupted slot and release jitter each
(``forward_ratio = replay_time / des_time``, floor in
``benchmarks/floors.json``).

Run:  pytest benchmarks/bench_simulator.py --benchmark-only

``REPRO_BENCH_PROFILE=full`` widens the workload (default: quick).
"""

from __future__ import annotations

import os
import time

from repro.campaigns.runner import synthesize_campaign_design
from repro.des import DesSimulator
from repro.eval.core import EvaluatorPool
from repro.ftcpg import FaultPlan
from repro.model import FaultModel
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.runtime import simulate, verify_tolerance
from repro.runtime.faults import extend_fault_plans, sample_fault_plans
from repro.schedule import synthesize_schedule
from repro.synthesis.tabu import TabuSettings
from repro.verify.runner import load_verify_workload
from repro.workloads import fig5_example

QUICK = os.environ.get("REPRO_BENCH_PROFILE", "quick") != "full"

#: Fig. 7 territory: the paper sweeps 20..80 processes.
FIG7_PROCESSES = 20 if QUICK else 30
#: Fault plans per timed pass, and interleaved passes (best of).
FORWARD_PLANS = 40 if QUICK else 80
FORWARD_TRIALS = 3

#: Acceptance floor (both profiles): the forward path walks only the
#: table entries its guard trie wakes, and read 2.8-3.8 quick on a
#: 2-vCPU VM (1.6-1.8 when it guard-checked every entry), so a
#: regression to the full walk fails the floor.
MIN_FORWARD_RATIO = 2.0


def _setup():
    app, arch, fault_model, transparency, mapping = fig5_example()
    policies = PolicyAssignment.uniform(
        app, ProcessPolicy.re_execution(fault_model.k))
    schedule = synthesize_schedule(app, arch, mapping, policies,
                                   fault_model, transparency)
    return app, arch, mapping, policies, fault_model, transparency, \
        schedule


def test_single_simulation(benchmark):
    app, arch, mapping, policies, fm, _tr, schedule = _setup()
    plan = FaultPlan({("P1", 0): (1,), ("P4", 0): (1,)})

    result = benchmark(simulate, app, arch, mapping, policies, fm,
                       schedule, plan)
    assert result.ok, result.errors


def test_exhaustive_verification(benchmark):
    app, arch, mapping, policies, fm, tr, schedule = _setup()

    report = benchmark(verify_tolerance, app, arch, mapping, policies,
                       fm, schedule, tr)
    benchmark.extra_info["scenarios"] = report.scenarios
    assert report.ok


def _fig7_design():
    """One synthesized Fig. 7-scale design (same recipe as
    ``bench_verify``)."""
    workload = {"processes": FIG7_PROCESSES, "nodes": 3, "seed": 1}
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


def test_des_forward_path_vs_replay(benchmark):
    app, arch, mapping, policies, fm, schedule = _fig7_design()
    base = sample_fault_plans(app, policies, fm.k, FORWARD_PLANS,
                              seed=1, include_fault_free=False)
    extended = extend_fault_plans(
        base, node_names=arch.node_names,
        process_names=app.process_names,
        horizon=schedule.worst_case_length,
        round_length=arch.bus.round_length,
        slots_per_round=len(arch.bus.slot_order),
        intermittent=1, slot_faults=1, jitter=0.5, seed=1)
    assert not any(plan.is_table_expressible for plan in extended)

    def replay_pass():
        started = time.perf_counter()
        for plan in base:
            simulate(app, arch, mapping, policies, fm, schedule, plan)
        return time.perf_counter() - started

    def forward_pass():
        started = time.perf_counter()
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        for plan in extended:
            des.simulate(plan)
        return time.perf_counter() - started

    # Interleaved best-of-N: each trial times both sides back to back,
    # so a load spike on a shared runner hits both.
    replay_time = des_time = float("inf")
    for __ in range(FORWARD_TRIALS):
        replay_time = min(replay_time, replay_pass())
        des_time = min(des_time, forward_pass())
    benchmark.pedantic(forward_pass, rounds=1, iterations=1)

    ratio = replay_time / des_time if des_time else 0.0
    benchmark.extra_info["processes"] = FIG7_PROCESSES
    benchmark.extra_info["plans"] = len(extended)
    benchmark.extra_info["replay_seconds"] = round(replay_time, 3)
    benchmark.extra_info["des_seconds"] = round(des_time, 3)
    benchmark.extra_info["forward_ratio"] = round(ratio, 2)
    assert ratio >= MIN_FORWARD_RATIO, (
        f"DES forward path fell below {MIN_FORWARD_RATIO} of replay "
        f"throughput: ratio {ratio:.2f} (replay {replay_time:.3f}s, "
        f"DES {des_time:.3f}s over {len(extended)} plans)")
