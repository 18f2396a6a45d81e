"""Search determinism: identical seeds give bit-identical solutions.

The batch engine depends on this: sweep cells may run serially, in
worker processes, or be resumed from a checkpoint, and all three must
agree. The tests pin (a) exact tenure arithmetic, (b) repeat-run
determinism, (c) equality of cached and uncached searches, and (d) a
regression value for one small seeded run.
"""

from __future__ import annotations

import math

from repro.eval import EvaluatorPool
from repro.model import FaultModel
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.synthesis import (
    TabuSearch,
    TabuSettings,
    initial_mapping,
    synthesize,
)
from repro.workloads import GeneratorConfig, generate_workload

SETTINGS = TabuSettings(iterations=8, neighborhood=8, seed=5,
                        bus_contention=False)


def small_workload():
    return generate_workload(GeneratorConfig(processes=8, nodes=3,
                                             seed=3))


class TestEffectiveTenure:
    def test_explicit_tenure_wins(self):
        assert TabuSettings(tenure=9).effective_tenure(100) == 9

    def test_exact_integer_arithmetic(self):
        settings = TabuSettings()
        for count in range(1, 500):
            assert settings.effective_tenure(count) == \
                math.isqrt(count) + 2

    def test_large_counts_do_not_depend_on_float_sqrt(self):
        # 10**18 + 2*10**9 has isqrt exactly 10**9; the float sqrt
        # rounds above it and int() would truncate to the wrong side
        # on a naive implementation.
        count = 10**18 + 2 * 10**9
        assert TabuSettings().effective_tenure(count) == \
            math.isqrt(count) + 2

    def test_degenerate_counts(self):
        assert TabuSettings().effective_tenure(0) == 3
        assert TabuSettings().effective_tenure(1) == 3


class TestNeighborhoodDeduplication:
    """The sampler never returns the same move twice (PR: neighborhood
    move deduplication).

    The RNG stream is untouched by the filter — draws happen exactly
    as before, duplicates are merely not *kept* — so the trajectory
    change is confined to neighborhoods that previously contained
    duplicates. The resulting end-to-end trajectory is pinned by
    ``test_pinned_regression`` below.
    """

    def _sample(self, neighborhood):
        from repro.model import FaultModel
        from repro.policies import PolicyAssignment, ProcessPolicy
        from repro.synthesis.tabu import TabuSearch
        from repro.utils.rng import DeterministicRng
        from repro.workloads import GeneratorConfig, generate_workload

        # Two processes on two nodes: only two distinct remap moves
        # exist, so any neighborhood above two draws duplicates.
        app, arch = generate_workload(GeneratorConfig(
            processes=2, nodes=2, seed=1))
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(1))
        mapping = None
        from repro.synthesis import initial_mapping
        mapping = initial_mapping(app, arch, policies)
        search = TabuSearch(
            app, arch, FaultModel(k=1),
            settings=TabuSettings(neighborhood=neighborhood, seed=7))
        return search._sample_moves((policies, mapping),
                                    DeterministicRng(7))

    def test_no_duplicate_moves(self):
        moves = self._sample(neighborhood=8)
        keys = [move.dedup_key() for move in moves]
        assert len(keys) == len(set(keys))
        # Only two distinct remaps exist on this workload; the old
        # sampler filled the neighborhood with repeats of them.
        assert len(moves) == 2

    def test_sampling_is_deterministic(self):
        a = self._sample(neighborhood=8)
        b = self._sample(neighborhood=8)
        assert a == b

    def test_exhausted_neighborhood_draw_count(self):
        """Three processes, k=2, the MXR policy space: only nine
        distinct moves exist (one remap and two policy switches per
        process), so a neighborhood of ten spends all ``limit * 8``
        draws. The moves and the next value of the stream pin how many
        random numbers that took."""
        from repro.synthesis.tabu import TabuSearch, policy_candidates
        from repro.utils.rng import DeterministicRng

        app, arch = generate_workload(GeneratorConfig(
            processes=3, nodes=2, seed=1))
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(2))
        mapping = initial_mapping(app, arch, policies)
        search = TabuSearch(
            app, arch, FaultModel(k=2),
            policy_space=policy_candidates(app, 2),
            settings=TabuSettings(neighborhood=10, seed=3))
        rng = DeterministicRng(3)
        moves = search._sample_moves((policies, mapping), rng)
        hybrid = ((1, 0), (0, 0))
        replicas = ((0, 0), (0, 0), (0, 0))
        assert [move.dedup_key() for move in moves] == [
            ("map", "P1", 0, "N1"), ("map", "P3", 0, "N2"),
            ("map", "P2", 0, "N2"), ("pol", "P3", hybrid),
            ("pol", "P2", hybrid), ("pol", "P3", replicas),
            ("pol", "P1", hybrid), ("pol", "P2", replicas),
            ("pol", "P1", replicas),
        ]
        assert rng.random() == 0.646913613301784


class TestSeededDeterminism:
    def test_repeat_runs_identical(self):
        app, arch = small_workload()
        results = [synthesize(app, arch, FaultModel(k=2), "MXR",
                              settings=SETTINGS) for _ in range(2)]
        a, b = results
        assert a.schedule_length == b.schedule_length
        assert a.nft_length == b.nft_length
        assert a.evaluations == b.evaluations
        assert a.mapping == b.mapping
        assert dict(a.policies.items()) == dict(b.policies.items())

    def test_cached_search_bit_identical_to_uncached(self):
        app, arch = small_workload()
        fm = FaultModel(k=2)
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(2))
        start = (policies, initial_mapping(app, arch, policies))

        uncached = TabuSearch(app, arch, fm,
                              settings=SETTINGS).optimize(start)
        cached = TabuSearch(app, arch, fm, settings=SETTINGS,
                            cache=EvaluatorPool()).optimize(start)

        assert cached.cost == uncached.cost
        assert cached.estimate.schedule_length == \
            uncached.estimate.schedule_length
        assert cached.estimate.timings == uncached.estimate.timings
        assert cached.mapping == uncached.mapping
        assert dict(cached.policies.items()) == \
            dict(uncached.policies.items())
        assert cached.history == uncached.history
        # Telemetry counts logical evaluations, not cache misses.
        assert cached.evaluations == uncached.evaluations

    def test_shared_cache_across_strategies_changes_nothing(self):
        app, arch = small_workload()
        fm = FaultModel(k=2)
        shared = EvaluatorPool()
        via_shared = [synthesize(app, arch, fm, s, settings=SETTINGS,
                                 cache=shared) for s in ("MX", "MR")]
        private = [synthesize(app, arch, fm, s, settings=SETTINGS)
                   for s in ("MX", "MR")]
        for a, b in zip(via_shared, private):
            assert a.schedule_length == b.schedule_length
            assert a.mapping == b.mapping
        # Sharing actually shared something.
        assert shared.stats().estimates.hits > 0

    def test_pinned_regression(self):
        """Exact result of one small seeded MXR run.

        If this changes, search determinism changed — an intentional
        algorithm change must update the pins in the same commit.
        (Last intentional change: the estimator now serializes
        ready copies earliest-start-first — the exact scheduler's
        order — instead of priority-first; the non-fault-tolerant
        baseline schedule loses priority-inversion idle and shortens
        from 235.954 to 217.832, while the FT result of this seed is
        order-insensitive: same design, same 473.999 length, same
        evaluation count. Before that: neighborhood move
        deduplication, 474.0 vs the 498.7 of the duplicate-wasting
        sampler.)
        """
        app, arch = small_workload()
        result = synthesize(app, arch, FaultModel(k=2), "MXR",
                            settings=SETTINGS)
        assert result.schedule_length == 473.999
        assert result.nft_length == 217.832
        assert result.evaluations == 327
        assert {name: mapped
                for (name, copy), mapped in result.mapping.items()
                if copy == 0} == {
            "P1": "N1", "P2": "N1", "P3": "N3", "P4": "N1",
            "P5": "N2", "P6": "N2", "P7": "N3", "P8": "N3",
        }
        policies = {
            name: tuple((c.recoveries, c.checkpoints)
                        for c in policy.copies)
            for name, policy in result.policies.items()
        }
        # The wider neighborhood lets MXR pick a replication hybrid
        # for P4; everything else stays pure re-execution.
        assert policies == {
            "P1": ((2, 0),), "P2": ((2, 0),), "P3": ((2, 0),),
            "P4": ((1, 0), (0, 0)), "P5": ((2, 0),),
            "P6": ((2, 0),), "P7": ((2, 0),), "P8": ((2, 0),),
        }
