"""The unified evaluation core: problems, tiers, and — above all —
exactness of the incremental path.

The hard invariant of ``repro.eval`` is that incremental single-move
re-evaluation is **bit-identical** to full re-evaluation: same
estimates, same tabu trajectories (``TabuResult.history``), same DSE
frontier bytes. These tests pin that by running every consumer with
the incremental path and again with the ``full_recompute`` fixture
(``tests/conftest.py``), which substitutes the full recompute for
``EstimatorState.reevaluate``.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext

import pytest

from repro.dse import DseConfig, SpaceConfig, run_dse
from repro.engine import EngineConfig
from repro.errors import SchedulingError
from repro.eval import (
    DesignEvaluation,
    Evaluator,
    EvaluatorPool,
    ScheduleProblem,
    problem_fingerprint,
)
from repro.eval.core import _LruTier
from repro.model import FaultModel, Transparency
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.schedule import estimate_ft_schedule, synthesize_schedule
from repro.schedule.estimation import (
    moved_fingerprint,
    solution_fingerprint,
)
from repro.synthesis import (
    TabuSearch,
    TabuSettings,
    initial_mapping,
    optimize_checkpoints_globally,
    synthesize,
)
from repro.synthesis.moves import PolicyMove, RemapMove
from repro.workloads import GeneratorConfig, generate_workload

SETTINGS = TabuSettings(iterations=8, neighborhood=8, seed=5,
                        bus_contention=False)


def small_workload():
    return generate_workload(GeneratorConfig(processes=8, nodes=3,
                                             seed=3))


def solution_for(app, arch, k=2):
    policies = PolicyAssignment.uniform(app,
                                        ProcessPolicy.re_execution(k))
    return policies, initial_mapping(app, arch, policies)


class TestScheduleProblem:
    def test_interning_returns_same_object(self):
        app, arch = small_workload()
        a = ScheduleProblem.for_workload(app, arch, FaultModel(k=2))
        b = ScheduleProblem.for_workload(app, arch, FaultModel(k=2))
        assert a is b

    def test_structurally_equal_workloads_intern_together(self):
        # Two independently generated (identical) workloads: object
        # identity differs, fingerprints agree, so one pool serves
        # both without binding to object identity.
        app1, arch1 = small_workload()
        app2, arch2 = small_workload()
        assert app1 is not app2
        a = ScheduleProblem.for_workload(app1, arch1, FaultModel(k=2))
        b = ScheduleProblem.for_workload(app2, arch2, FaultModel(k=2))
        assert a is b

    def test_fault_model_distinguishes_problems(self):
        app, arch = small_workload()
        a = ScheduleProblem.for_workload(app, arch, FaultModel(k=2))
        b = ScheduleProblem.for_workload(app, arch, FaultModel(k=1))
        assert a != b
        assert a.fingerprint != b.fingerprint

    def test_priorities_normalized_into_fingerprint(self):
        app, arch = small_workload()
        from repro.schedule import partial_critical_path_priorities
        pcp = partial_critical_path_priorities(app, arch)
        implicit = ScheduleProblem.for_workload(app, arch,
                                                FaultModel(k=2))
        explicit = ScheduleProblem.for_workload(
            app, arch, FaultModel(k=2), priorities=dict(pcp))
        assert implicit is explicit
        skewed = ScheduleProblem.for_workload(
            app, arch, FaultModel(k=2),
            priorities={name: 0.0 for name in pcp})
        assert skewed is not implicit

    def test_fingerprint_is_hashable_and_deterministic(self):
        app, arch = small_workload()
        fp1 = problem_fingerprint(app, arch, FaultModel(k=2), {})
        fp2 = problem_fingerprint(app, arch, FaultModel(k=2), {})
        assert fp1 == fp2
        assert hash(fp1) == hash(fp2)


class TestEvaluatorTiers:
    def test_estimate_identity_reuse_and_stats(self):
        app, arch = small_workload()
        policies, mapping = solution_for(app, arch)
        evaluator = Evaluator(ScheduleProblem.for_workload(
            app, arch, FaultModel(k=2)))
        first = evaluator.estimate(policies, mapping)
        second = evaluator.estimate(policies, mapping)
        assert second is first
        stats = evaluator.stats()
        assert (stats.estimates.hits, stats.estimates.misses) == (1, 1)
        assert stats.estimates.entries == 1
        assert stats.schedules.lookups == 0

    def test_estimate_matches_oracle(self):
        app, arch = small_workload()
        policies, mapping = solution_for(app, arch)
        evaluator = Evaluator(ScheduleProblem.for_workload(
            app, arch, FaultModel(k=2)))
        cached = evaluator.estimate(policies, mapping)
        fresh = estimate_ft_schedule(app, arch, mapping, policies,
                                     FaultModel(k=2))
        assert cached.schedule_length == fresh.schedule_length
        assert cached.timings == fresh.timings

    def test_estimate_move_incremental_matches_full(self,
                                                    full_recompute):
        app, arch = small_workload()
        policies, mapping = solution_for(app, arch)
        problem = ScheduleProblem.for_workload(app, arch,
                                               FaultModel(k=2))
        inc = Evaluator(problem)
        full = Evaluator(problem)
        parent_inc = inc.estimate_state(policies, mapping)
        parent_full = full.estimate_state(policies, mapping)
        name = app.process_names[-1]
        node = next(n for n in app.process(name).allowed_nodes
                    if n != mapping.node_of(name, 0))
        move = RemapMove(name, 0, node)
        new_p, new_m = move.apply((policies, mapping), app)
        a = inc.estimate_move(parent_inc, new_p, new_m, name)
        with full_recompute():
            b = full.estimate_move(parent_full, new_p, new_m, name)
        assert a.estimate.schedule_length == b.estimate.schedule_length
        assert a.estimate.timings == b.estimate.timings

    def test_exact_schedule_tier_caches(self):
        app, arch = small_workload()
        policies, mapping = solution_for(app, arch, k=1)
        evaluator = Evaluator(ScheduleProblem.for_workload(
            app, arch, FaultModel(k=1)))
        first = evaluator.exact_schedule(policies, mapping)
        second = evaluator.exact_schedule(policies, mapping)
        assert second is first
        stats = evaluator.stats()
        assert (stats.schedules.hits, stats.schedules.misses) == (1, 1)
        fresh = synthesize_schedule(app, arch, mapping, policies,
                                    FaultModel(k=1))
        assert first.worst_case_length == fresh.worst_case_length
        assert first.fault_free_length == fresh.fault_free_length

    def test_design_tier_bundles_metrics(self):
        app, arch = small_workload()
        policies, mapping = solution_for(app, arch, k=1)
        evaluator = Evaluator(ScheduleProblem.for_workload(
            app, arch, FaultModel(k=1)))
        design = evaluator.evaluate_design(policies, mapping,
                                           Transparency.none())
        assert isinstance(design, DesignEvaluation)
        assert design.worst_case_length == \
            design.schedule.worst_case_length
        assert design.memory.total_bytes >= 0
        assert design.transparency_degree == 0.0
        again = evaluator.evaluate_design(policies, mapping,
                                          Transparency.none())
        assert again is design
        # Distinct transparency: distinct design (and schedule) entry.
        frozen = evaluator.evaluate_design(
            policies, mapping,
            Transparency(frozen_messages=app.message_names))
        assert frozen is not design

    def test_pool_one_evaluator_per_problem(self):
        app, arch = small_workload()
        pool = EvaluatorPool()
        e2 = pool.evaluator_for(app, arch, FaultModel(k=2))
        e0 = pool.evaluator_for(app, arch, FaultModel(k=0))
        assert e2 is not e0
        assert pool.evaluator_for(app, arch, FaultModel(k=2)) is e2
        assert len(pool.evaluators) == 2

    def test_pool_stats_merge_tiers(self):
        app, arch = small_workload()
        policies, mapping = solution_for(app, arch)
        pool = EvaluatorPool()
        evaluator = pool.evaluator_for(app, arch, FaultModel(k=2))
        evaluator.estimate(policies, mapping)
        evaluator.estimate(policies, mapping)
        stats = pool.stats()
        assert (stats.estimates.hits, stats.estimates.misses) == (1, 1)


class TestIncrementalExactness:
    """The tentpole invariant: incremental == full recompute."""

    def _tabu_result(self):
        app, arch = small_workload()
        fm = FaultModel(k=2)
        policies, mapping = solution_for(app, arch)
        problem = ScheduleProblem.for_workload(app, arch, fm)
        search = TabuSearch(app, arch, fm, settings=SETTINGS,
                            evaluator=Evaluator(problem))
        return search.optimize((policies, mapping))

    def test_tabu_trajectory_bit_identical(self, full_recompute):
        on = self._tabu_result()
        with full_recompute():
            off = self._tabu_result()
        assert on.history == off.history
        assert on.cost == off.cost
        assert on.estimate.schedule_length == \
            off.estimate.schedule_length
        assert on.estimate.timings == off.estimate.timings
        assert on.mapping == off.mapping
        assert dict(on.policies.items()) == dict(off.policies.items())
        assert on.evaluations == off.evaluations

    def test_synthesize_identical_under_forced_full(self,
                                                    full_recompute):
        app, arch = small_workload()
        fm = FaultModel(k=2)
        on = synthesize(app, arch, fm, "MXR", settings=SETTINGS)
        with full_recompute():
            off = synthesize(app, arch, fm, "MXR", settings=SETTINGS)
        assert on.schedule_length == off.schedule_length
        assert on.nft_length == off.nft_length
        assert on.evaluations == off.evaluations
        assert on.mapping == off.mapping
        assert dict(on.policies.items()) == dict(off.policies.items())

    def test_checkpoint_descent_identical(self, full_recompute):
        app, arch = generate_workload(GeneratorConfig(
            processes=6, nodes=2, seed=11))
        fm = FaultModel(k=2)
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.checkpointing(2, 3))
        mapping = initial_mapping(app, arch, policies)
        problem = ScheduleProblem.for_workload(app, arch, fm)
        outcomes = []
        for mode in (nullcontext, full_recompute):
            with mode():
                outcomes.append(optimize_checkpoints_globally(
                    app, arch, mapping, policies, fm,
                    evaluator=Evaluator(problem)))
        (pol_a, est_a, evals_a), (pol_b, est_b, evals_b) = outcomes
        assert est_a.schedule_length == est_b.schedule_length
        assert dict(pol_a.items()) == dict(pol_b.items())
        assert evals_a == evals_b

    def test_dse_frontier_bytes_identical(self, full_recompute):
        config = DseConfig(
            workload={"processes": 6, "nodes": 2, "seed": 1},
            space=SpaceConfig(strategies=("MXR",), k_values=(1,),
                              checkpoint_counts=(0, 1),
                              transparency_samples=1),
            chunks=2,
            settings=TabuSettings(iterations=4, neighborhood=4,
                                  bus_contention=False),
        )
        reports = []
        for mode in (nullcontext, full_recompute):
            with mode():
                reports.append(run_dse(
                    config, engine_config=EngineConfig(workers=1)))
        assert reports[0].to_json() == reports[1].to_json()


class TestPolicyRefinementParity:
    def test_refinement_identical_incremental_on_off(self,
                                                     full_recompute):
        from repro.synthesis.strategies import _policy_refinement
        from repro.synthesis.tabu import policy_candidates
        from repro.schedule import partial_critical_path_priorities

        app, arch = small_workload()
        fm = FaultModel(k=2)
        policies, mapping = solution_for(app, arch)
        priorities = partial_critical_path_priorities(app, arch)
        space = policy_candidates(app, 2, allow_combined=True)
        problem = ScheduleProblem.for_workload(
            app, arch, fm, priorities=priorities)
        outcomes = []
        for mode in (nullcontext, full_recompute):
            with mode():
                outcomes.append(_policy_refinement(
                    app, arch, fm, space, policies, mapping,
                    priorities, SETTINGS, Evaluator(problem)))
        a, b = outcomes
        assert a[2].schedule_length == b[2].schedule_length
        assert dict(a[0].items()) == dict(b[0].items())
        assert a[3] == b[3]


@pytest.fixture
def move_lookups(monkeypatch):
    """Records every ``Evaluator.estimate_move`` call as ``[expected
    key, keys looked up, keys stored, caller]``: the expected key is
    the full fingerprint of the new solution, the looked-up and stored
    keys are what the estimates tier saw during the call."""
    calls: list[list] = []
    active: list[list] = []
    move = Evaluator.estimate_move
    get, put = _LruTier.get, _LruTier.put

    def spy_move(self, parent, policies, mapping, changed):
        record = [(parent.bus_contention, parent.slack_sharing,
                   solution_fingerprint(policies, mapping)), [], [],
                  sys._getframe(1).f_code.co_name]
        calls.append(record)
        active.append(record)
        try:
            return move(self, parent, policies, mapping, changed)
        finally:
            active.pop()

    def spy_get(self, key):
        if active:
            active[-1][1].append(key)
        return get(self, key)

    def spy_put(self, key, value):
        if active:
            active[-1][2].append(key)
        return put(self, key, value)

    monkeypatch.setattr(Evaluator, "estimate_move", spy_move)
    monkeypatch.setattr(_LruTier, "get", spy_get)
    monkeypatch.setattr(_LruTier, "put", spy_put)
    return calls


def assert_keys_are_full_fingerprints(calls):
    for expected, looked_up, stored, _caller in calls:
        assert looked_up == [expected]
        assert repr(looked_up[0]) == repr(expected)  # the DiskCache path
        assert stored in ([], [expected])


class TestDerivedEstimateKeys:
    """``estimate_move`` derives a neighbour's key from its parent's
    (one process's part rebuilt); the key must equal the full
    fingerprint of the neighbour in every caller."""

    @pytest.mark.parametrize("strategy, callers", [
        ("MXR", {"_evaluate_move", "_policy_refinement"}),
        ("MC_GLOBAL", {"_evaluate_move",
                       "optimize_checkpoints_globally"}),
    ])
    @pytest.mark.parametrize("bus_contention", [False, True])
    @pytest.mark.parametrize("workload", [(8, 3, 3), (6, 2, 11)])
    def test_synthesize_looks_up_full_fingerprints(
            self, move_lookups, strategy, callers, bus_contention,
            workload):
        processes, nodes, seed = workload
        app, arch = generate_workload(GeneratorConfig(
            processes=processes, nodes=nodes, seed=seed))
        settings = TabuSettings(iterations=4, neighborhood=6, seed=5,
                                bus_contention=bus_contention)
        synthesize(app, arch, FaultModel(k=2), strategy,
                   settings=settings)
        assert {call[3] for call in move_lookups} == callers
        assert_keys_are_full_fingerprints(move_lookups)

    def test_alternating_parents(self, move_lookups):
        app, arch = small_workload()
        fm = FaultModel(k=2)
        policies, mapping = solution_for(app, arch)
        evaluator = Evaluator(ScheduleProblem.for_workload(app, arch, fm))
        a_solution = (policies, mapping)
        a = evaluator.estimate_state(policies, mapping)
        first, *others = app.process_names

        def remaps(solution, names):
            for name in names:
                for node in app.process(name).allowed_nodes:
                    move = RemapMove(name, 0, node)
                    if move.applies_to(solution):
                        yield name, move.apply(solution, app)

        # B differs from A at ``first``; the neighbours of both move
        # other processes, so a key built from the wrong parent's
        # fingerprint would differ at ``first``.
        name, b_solution = next(remaps(a_solution, [first]))
        b = evaluator.estimate_move(a, *b_solution, name)
        for parent, solution in ((a, a_solution), (b, b_solution),
                                 (a, a_solution)):
            for name, (new_p, new_m) in remaps(solution, others):
                state = evaluator.estimate_move(parent, new_p, new_m,
                                                name)
                fresh = estimate_ft_schedule(app, arch, new_m, new_p, fm)
                assert state.estimate.schedule_length == \
                    fresh.schedule_length
                assert state.estimate.timings == fresh.timings
        assert len(move_lookups) > 3
        assert_keys_are_full_fingerprints(move_lookups)

    @pytest.mark.parametrize("changed", ["", "P", "P1x", "~"])
    def test_unknown_changed_process_raises(self, changed):
        app, arch = small_workload()
        policies, mapping = solution_for(app, arch)
        evaluator = Evaluator(ScheduleProblem.for_workload(
            app, arch, FaultModel(k=2)))
        parent = evaluator.estimate_state(policies, mapping)
        name = app.process_names[-1]
        node = next(n for n in app.process(name).allowed_nodes
                    if n != mapping.node_of(name, 0))
        new_p, new_m = RemapMove(name, 0, node).apply((policies, mapping),
                                                      app)
        with pytest.raises(SchedulingError, match="unknown process"):
            evaluator.estimate_move(parent, new_p, new_m, changed)

    def test_moved_fingerprint_shares_unchanged_parts(self):
        app, arch = small_workload()
        policies, mapping = solution_for(app, arch)
        parent = solution_fingerprint(policies, mapping)
        for name in app.process_names:
            new_p, new_m = PolicyMove(
                name, ProcessPolicy.replication(2)).apply(
                (policies, mapping), app)
            moved = moved_fingerprint(parent, new_p, new_m, name)
            assert moved == solution_fingerprint(new_p, new_m)
            assert sum(a is b for a, b in zip(moved, parent)) == \
                len(parent) - 1


class TestMoveDedupKeys:
    def test_remap_dedup_key_is_value_identity(self):
        assert RemapMove("P1", 0, "N2").dedup_key() == \
            RemapMove("P1", 0, "N2").dedup_key()
        assert RemapMove("P1", 0, "N2").dedup_key() != \
            RemapMove("P1", 0, "N3").dedup_key()

    def test_policy_dedup_key_uses_signature(self):
        a = PolicyMove("P1", ProcessPolicy.re_execution(2))
        b = PolicyMove("P1", ProcessPolicy.re_execution(2))
        c = PolicyMove("P1", ProcessPolicy.replication(2))
        assert a.dedup_key() == b.dedup_key()
        assert a.dedup_key() != c.dedup_key()
