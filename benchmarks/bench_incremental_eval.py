"""Benchmark: incremental evaluation vs full re-evaluation.

Two measurements on a Fig. 7-scale workload:

* **micro** — a seeded random walk of single moves (remap + policy,
  the tabu neighborhood mix) evaluated twice: through
  :meth:`~repro.schedule.estimation.EstimatorState.reevaluate`
  (incremental) and through a from-scratch
  :func:`~repro.schedule.estimation.estimate_ft_schedule` per step.
  Every step asserts exact estimate equality (the oracle invariant),
  and the run asserts the incremental path beats full re-evaluation
  by the pinned ratio floor below.
* **end-to-end** — one full ``synthesize()`` with the evaluation
  core's incremental path, and once more with
  ``EstimatorState.reevaluate`` replaced by the full recompute (the
  oracle); the results (including the tabu trajectory) must be
  bit-identical, and the incremental run must be faster.

Run:  pytest benchmarks/bench_incremental_eval.py --benchmark-only

``REPRO_BENCH_PROFILE=full`` widens the workload (default: quick).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import pytest

from repro.eval import Evaluator, EvaluatorPool, ScheduleProblem
from repro.model import FaultModel
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.schedule.estimation import (
    EstimatorState,
    estimate_ft_schedule,
)
from repro.synthesis import TabuSearch, TabuSettings, initial_mapping, synthesize
from repro.synthesis.moves import PolicyMove, RemapMove
from repro.synthesis.tabu import policy_candidates
from repro.utils.rng import DeterministicRng
from repro.workloads.generator import (
    generate_workload,
    paper_experiment_config,
)

QUICK = os.environ.get("REPRO_BENCH_PROFILE", "quick") != "full"

#: Fig. 7 sizes: the paper sweeps 20..100 processes.
SIZE = 40 if QUICK else 60
WALK_STEPS = 300 if QUICK else 600
SETTINGS = TabuSettings(iterations=16, neighborhood=12,
                        bus_contention=False)

#: Acceptance floor for the incremental path on the quick profile.
#: A ratio against a moving baseline: the denominator is a *full*
#: evaluation, one fresh ``_EstimationRun`` (the scheduler the
#: incremental suffix runs), so every full-path speedup (say, a TDMA
#: slot-search rewrite) compresses the ratio even while absolute
#: incremental throughput rises. Re-pinned 1.5 -> 1.15 when the full
#: path got ~25-40% faster; both absolute rates and the ratio
#: improved against the previous pin's commit.
MIN_SPEEDUP = 1.15


@contextmanager
def _full_recompute():
    """Inside the block, ``EstimatorState.reevaluate`` returns the
    full ``EstimatorState.compute`` of the moved solution: every
    ``Evaluator.estimate_move`` miss takes the oracle path."""
    def full(state, policies, mapping, changed):
        return EstimatorState.compute(
            state.app, state.arch, mapping, policies,
            FaultModel(k=state.k), priorities=state.priorities,
            bus_contention=state.bus_contention,
            slack_sharing=state.slack_sharing)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EstimatorState, "reevaluate", full)
        yield


def _workload():
    config, k = paper_experiment_config(SIZE, 1)
    app, arch = generate_workload(config)
    return app, arch, k


def _draw_move(rng, app, arch, policies, mapping, space):
    name = rng.choice(app.process_names)
    process = app.process(name)
    if rng.random() < 0.4:
        return PolicyMove(name, rng.choice(list(space(name))))
    policy = policies.of(name)
    copy_index = rng.randint(0, len(policy.copies) - 1)
    if copy_index == 0 and process.fixed_node is not None:
        return None
    options = [n for n in process.allowed_nodes
               if n in arch.node_names
               and n != mapping.node_of(name, copy_index)]
    if not options:
        return None
    return RemapMove(name, copy_index, rng.choice(options))


def _move_walk(app, arch, k, steps):
    """A seeded mixed move walk; returns (parent state, move) pairs."""
    fm = FaultModel(k=k)
    space = policy_candidates(app, k, allow_combined=k >= 2)
    policies = PolicyAssignment.uniform(app,
                                        ProcessPolicy.re_execution(k))
    mapping = initial_mapping(app, arch, policies)
    state = EstimatorState.compute(app, arch, mapping, policies, fm,
                                   bus_contention=False)
    rng = DeterministicRng(17)
    walk = []
    while len(walk) < steps:
        move = _draw_move(rng, app, arch, policies, mapping, space)
        if move is None or not move.applies_to((policies, mapping)):
            continue
        new_policies, new_mapping = move.apply((policies, mapping),
                                               app)
        walk.append((state, new_policies, new_mapping, move.process))
        policies, mapping = new_policies, new_mapping
        state = state.reevaluate(policies, mapping, move.process)
    return fm, walk


def test_incremental_beats_full_reevaluation(benchmark):
    app, arch, k = _workload()
    fm, walk = _move_walk(app, arch, k, WALK_STEPS)

    # Exactness first: every incremental step equals the oracle.
    for state, policies, mapping, changed in walk[:40]:
        incremental = state.reevaluate(policies, mapping, changed)
        oracle = estimate_ft_schedule(app, arch, mapping, policies,
                                      fm, bus_contention=False)
        assert incremental.estimate.schedule_length == \
            oracle.schedule_length
        assert incremental.estimate.timings == oracle.timings

    def run_incremental():
        for state, policies, mapping, changed in walk:
            state.reevaluate(policies, mapping, changed)

    started = time.perf_counter()
    for state, policies, mapping, changed in walk:
        estimate_ft_schedule(app, arch, mapping, policies, fm,
                             bus_contention=False)
    full_time = time.perf_counter() - started

    started = time.perf_counter()
    benchmark.pedantic(run_incremental, rounds=1, iterations=1)
    incremental_time = time.perf_counter() - started

    speedup = full_time / incremental_time if incremental_time else 0.0
    benchmark.extra_info["processes"] = SIZE
    benchmark.extra_info["k"] = k
    benchmark.extra_info["moves"] = len(walk)
    benchmark.extra_info["full_evals_per_sec"] = round(
        len(walk) / full_time, 1)
    benchmark.extra_info["incremental_evals_per_sec"] = round(
        len(walk) / incremental_time, 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= MIN_SPEEDUP, (
        f"incremental evaluation only {speedup:.2f}x faster than full "
        f"re-evaluation (required {MIN_SPEEDUP}x; "
        f"{len(walk)} moves, {SIZE} processes)")


def test_synthesize_end_to_end_identical_and_faster(benchmark):
    app, arch, k = _workload()
    fm = FaultModel(k=k)

    # Trajectory identity: the tabu search walks the exact same
    # history with the incremental path and with the full recompute.
    problem = ScheduleProblem.for_workload(app, arch, fm)
    policies = PolicyAssignment.uniform(app,
                                        ProcessPolicy.re_execution(k))
    start = (policies, initial_mapping(app, arch, policies))

    def history():
        search = TabuSearch(
            app, arch, fm, settings=SETTINGS,
            policy_space=policy_candidates(app, k,
                                           allow_combined=k >= 2),
            evaluator=Evaluator(problem))
        return search.optimize(start).history

    incremental_history = history()
    with _full_recompute():
        full_history = history()
    assert incremental_history == full_history, \
        "incremental evaluation changed the tabu trajectory"

    started = time.perf_counter()
    with _full_recompute():
        full = synthesize(app, arch, fm, "MXR", settings=SETTINGS,
                          cache=EvaluatorPool())
    full_time = time.perf_counter() - started

    incremental = benchmark.pedantic(
        lambda: synthesize(app, arch, fm, "MXR", settings=SETTINGS,
                           cache=EvaluatorPool()),
        rounds=1, iterations=1)
    incremental_time = benchmark.stats.stats.total

    assert incremental.schedule_length == full.schedule_length
    assert incremental.nft_length == full.nft_length
    assert incremental.evaluations == full.evaluations
    assert incremental.mapping == full.mapping
    assert dict(incremental.policies.items()) == \
        dict(full.policies.items())

    speedup = (full_time / incremental_time if incremental_time
               else 0.0)
    benchmark.extra_info["processes"] = SIZE
    benchmark.extra_info["k"] = k
    benchmark.extra_info["evaluations"] = incremental.evaluations
    benchmark.extra_info["full_seconds"] = round(full_time, 2)
    benchmark.extra_info["incremental_seconds"] = round(
        incremental_time, 2)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    # A demonstrable end-to-end win, with slack for CI noise (cache
    # hits dominate revisited solutions either way).
    assert speedup >= 1.05, (
        f"synthesize() with incremental evaluation was not faster: "
        f"{speedup:.2f}x (full {full_time:.2f}s, incremental "
        f"{incremental_time:.2f}s)")
