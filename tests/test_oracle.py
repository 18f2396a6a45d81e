"""Differential-oracle property suite: estimation vs scheduler vs
simulator.

The three views of a design's worst case must agree:

* the **simulator**'s worst makespan over *all* fault scenarios
  (exhaustive sweep) equals the **exact conditional scheduler**'s
  certified worst path — the tables promise nothing they cannot
  execute, and the execution reaches nothing the tables did not
  promise. For replication hybrids the relation weakens to <=: the
  tables' worst path waits for every scheduled replica, while at run
  time a process completes at its *first* successful copy, so the
  certificate is an upper bound there (never below the execution);
* the slack-sharing **estimate** (plus the condition-broadcast
  allowance it deliberately does not model) bounds the simulated
  worst case from above — in the sound ``"budgeted"`` mode always,
  in the paper's ``"max"`` mode whenever the design has no
  replication hybrid (PR 2 showed hybrids can split faults across
  saturated copies and beat the running-max rule);
* no scenario violates a run-time invariant, and the simulated
  fault-free finish never exceeds the fault-free trace length (with
  replication it is *shorter*: a process completes at its first
  successful copy, the trace schedules them all).

Every design of the grid also checks that **compression preserves
meaning**: its raw tables (``compress=False``) run every scenario to
the same ``ok``, ``completed`` and ``makespan`` as the compressed
tables. Frozen-transparency designs are checked separately on
checkpointed DSE candidates, where raw tables may fail the
decidability check by design (a pinned frozen start keeps its context
guard until compression collapses it).

A fourth leg holds the **batched scenario kernel**
(:mod:`repro.kernels.batch`, behind
:class:`~repro.verify.core.ScenarioSweep`) against the pure-Python
table replay: every design the grid visits asserts full
``SimulationResult`` equality of every swept scenario against a
one-shot ``simulate()``. The estimator has a single implementation;
``tests/test_incremental_eval.py`` holds its incremental
``reevaluate`` against a full compute, and
``tests/test_estimation.py::TestEstimateBytePins`` pins its bits.

Two generators feed the triangle: a deterministic grid of >= 200
synthesized designs (seeds x strategies x fault budgets), and
hypothesis-drawn workload shapes on top.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaigns.stats import estimate_bound
from repro.dse.explorer import DEFAULT_SETTINGS, apply_checkpoint_counts
from repro.dse.space import SpaceConfig, enumerate_candidates
from repro.eval.core import EvaluatorPool
from repro.model import FaultModel
from repro.runtime.simulator import simulate
from repro.schedule.conditional import synthesize_schedule
from repro.schedule.estimation import estimate_ft_schedule
from repro.synthesis import synthesize
from repro.synthesis.tabu import TabuSettings
from repro.verify.core import ScenarioSweep
from repro.verify.stats import VerificationStats
from repro.workloads.generator import GeneratorConfig, generate_workload

#: Tiny search budget: the oracle checks the *evaluation seam*, not
#: the search quality, so the cheapest design that exercises the
#: strategy's policy mix is enough.
SETTINGS = TabuSettings(iterations=2, neighborhood=4,
                        bus_contention=False)

STRATEGIES = ("MXR", "MX", "MR", "SFX")
K_VALUES = (1, 2)
GRID_SEEDS = tuple(range(25))

#: The acceptance floor: designs covered by the deterministic grid.
GRID_DESIGNS = len(GRID_SEEDS) * len(STRATEGIES) * len(K_VALUES)
assert GRID_DESIGNS >= 200


def _raw_results(app, arch, mapping, policies, fault_model, priorities,
                 transparency=None):
    """Sweep of one design's uncompressed tables, in plan order."""
    raw = synthesize_schedule(app, arch, mapping, policies, fault_model,
                              transparency, priorities=priorities,
                              max_contexts=200_000, compress=False)
    return ScenarioSweep(app, arch, mapping, policies, fault_model,
                         raw).results()


def _meaning(result) -> tuple:
    """What a scenario's execution means, fired entries aside."""
    return result.ok, result.completed, result.makespan


def _check_triangle(app, arch, strategy: str, k: int) -> None:
    """Synthesize one design and close the triangle on it."""
    pool = EvaluatorPool()
    fault_model = FaultModel(k=k)
    design = synthesize(app, arch, fault_model, strategy,
                        settings=SETTINGS, cache=pool)
    evaluator = pool.evaluator_for(app, arch, fault_model)
    schedule = evaluator.exact_schedule(design.policies,
                                        design.mapping,
                                        max_contexts=200_000)
    sweep = ScenarioSweep(app, arch, design.mapping, design.policies,
                          fault_model, schedule)
    raw_results = _raw_results(app, arch, design.mapping,
                               design.policies, fault_model,
                               evaluator.problem.priorities)
    stats = VerificationStats()
    for result, raw in zip(sweep.results(), raw_results, strict=True):
        stats.observe(result)
        # Kernel vs simulator: the sweep (the batched scenario
        # kernel) reproduces the one-shot replay bit for bit.
        assert result == simulate(
            app, arch, design.mapping, design.policies, fault_model,
            schedule, result.plan), (
            f"{app.name}/{strategy}/k={k}: swept result diverged "
            f"from simulate() on {result.plan.describe()}")
        # Compressed vs raw tables: the same execution.
        assert _meaning(result) == _meaning(raw), (
            f"{app.name}/{strategy}/k={k}: compression changed "
            f"{result.plan.describe()}")

    label = f"{app.name}/{strategy}/k={k}"
    pure = all(len(policy.copies) == 1
               for __, policy in design.policies.items())
    assert stats.failures == 0, (
        f"{label}: {stats.failure_records[:1]}")
    # Scheduler vs simulator: the certified worst path is exactly the
    # worst simulated finish over all fault scenarios — an upper
    # bound only for replication hybrids, where the runtime stops at
    # the first successful copy but the tables wait for them all.
    if pure:
        assert stats.worst_makespan == pytest.approx(
            schedule.worst_case_length, abs=1e-6), label
    assert stats.worst_makespan \
        <= schedule.worst_case_length + 1e-6, label
    # Same first-copy-wins effect on the fault-free trace.
    assert (stats.fault_free_makespan or 0.0) \
        <= schedule.fault_free_length + 1e-6, label

    # Estimation >= simulator, in both slack-sharing modes (the
    # "max" rule only where it is sound: no replication hybrid).
    for mode in ("budgeted", "max"):
        if mode == "max" and not pure:
            continue
        estimate = estimate_ft_schedule(
            app, arch, design.mapping, design.policies, fault_model,
            slack_sharing=mode)
        # The bare estimate + broadcast allowance is the certified
        # bound for *every* policy mix: the estimator serializes
        # co-located copies earliest-start-first like the exact
        # scheduler's context exploration, so replicated designs need
        # no exact-worst-case floor (the 4p-3n-s283 counterexample is
        # pinned positively in tests/test_campaigns.py).
        bound = estimate_bound(app, arch, estimate, k)
        assert stats.worst_makespan <= bound + 1e-6, (
            f"{label}: simulated worst {stats.worst_makespan} beyond "
            f"the {mode} bound {bound}")


class TestOracleGrid:
    """The deterministic >= 200-design acceptance grid."""

    @pytest.mark.parametrize("seed", GRID_SEEDS)
    def test_triangle_closes(self, seed):
        app, arch = generate_workload(GeneratorConfig(
            processes=5, nodes=2, seed=seed, layer_width=3))
        for strategy in STRATEGIES:
            for k in K_VALUES:
                _check_triangle(app, arch, strategy, k)


class TestOracleProperty:
    """Hypothesis-drawn workload shapes on top of the grid."""

    RELAXED = settings(max_examples=15, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])

    @RELAXED
    @given(processes=st.integers(3, 6), nodes=st.integers(1, 3),
           seed=st.integers(0, 10_000), k=st.integers(1, 2),
           strategy=st.sampled_from(STRATEGIES))
    def test_triangle_closes(self, processes, nodes, seed, k,
                             strategy):
        app, arch = generate_workload(GeneratorConfig(
            processes=processes, nodes=nodes, seed=seed,
            layer_width=3))
        _check_triangle(app, arch, strategy, k)


class TestCompressionMeaning:
    """Compressed tables of frozen, checkpointed DSE candidates.

    Raw tables of such designs may fail the decidability check: a
    pinned frozen start keeps its context guard until compression
    collapses it. So the compressed tables must run every scenario
    clean, and agree with the raw tables wherever those run clean.
    """

    @pytest.mark.parametrize("seed", (1, 7))
    def test_frozen_checkpointed_candidates(self, seed):
        app, arch = generate_workload(GeneratorConfig(
            processes=3, nodes=2, seed=seed))
        space = SpaceConfig(strategies=("MXR",), k_values=(2,),
                            checkpoint_counts=(1, 2),
                            transparency_samples=1, seed=seed)
        fault_model = FaultModel(k=2)
        pool = EvaluatorPool()
        design = synthesize(app, arch, fault_model, "MXR",
                            settings=DEFAULT_SETTINGS, cache=pool)
        evaluator = pool.evaluator_for(app, arch, fault_model)
        frozen = [c for c in enumerate_candidates(app, arch, space)
                  if c.transparency.frozen_processes
                  or c.transparency.frozen_messages]
        assert frozen
        for candidate in frozen:
            policies, mapping = apply_checkpoint_counts(
                app, design.policies, design.mapping,
                candidate.checkpoints)
            transparency = candidate.transparency.build()
            schedule = evaluator.exact_schedule(
                policies, mapping, transparency, max_contexts=200_000)
            sweep = ScenarioSweep(app, arch, mapping, policies,
                                  fault_model, schedule)
            raw_results = _raw_results(
                app, arch, mapping, policies, fault_model,
                evaluator.problem.priorities, transparency)
            for result, raw in zip(sweep.results(), raw_results,
                                   strict=True):
                label = (f"{candidate.candidate_id} on "
                         f"{result.plan.describe()}")
                assert result.ok, f"{label}: {result.errors}"
                if raw.ok:
                    assert _meaning(result) == _meaning(raw), label
