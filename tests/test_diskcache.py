"""The disk-backed persistent evaluation cache.

The cache's contract is strict: warm-starting from disk must change
*nothing* about an evaluation — identical results, identical in-memory
counters — and any disk failure (corruption, unreadable entries,
unpicklable values) degrades to a recompute, never an error.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.eval import (
    CACHE_DIR_ENV,
    DiskCache,
    Evaluator,
    EvaluatorPool,
    ScheduleProblem,
    cache_dir_default,
)
from repro.eval.diskcache import CACHE_FORMAT
from repro.model import FaultModel
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.workloads import GeneratorConfig, generate_workload


def small_problem():
    app, arch = generate_workload(GeneratorConfig(processes=8,
                                                  nodes=3, seed=3))
    problem = ScheduleProblem.for_workload(app, arch, FaultModel(k=2))
    policies = PolicyAssignment.uniform(
        app, ProcessPolicy.re_execution(2))
    from repro.synthesis import initial_mapping
    return problem, policies, initial_mapping(app, arch, policies)


class TestDiskCache:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = cache.problem_key(("fp",))
        assert cache.get(key, "estimates", ("k", 1)) is None
        cache.put(key, "estimates", ("k", 1), {"value": 42})
        assert cache.get(key, "estimates", ("k", 1)) == {"value": 42}
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.stored) == (1, 1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5

    def test_keys_are_separated(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = cache.problem_key(("fp",))
        other = cache.problem_key(("other-fp",))
        cache.put(key, "estimates", ("k",), "estimate")
        assert cache.get(key, "schedules", ("k",)) is None
        assert cache.get(other, "estimates", ("k",)) is None
        assert cache.get(key, "estimates", ("k", 2)) is None

    def test_corrupt_entry_is_a_recomputable_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = cache.problem_key(("fp",))
        cache.put(key, "estimates", ("k",), "good")
        entry = next(cache.namespace.rglob("*.pkl"))
        entry.write_bytes(b"\x80\x05garbage")
        assert cache.get(key, "estimates", ("k",)) is None
        assert cache.stats.errors == 1
        # The recompute path overwrites the corrupt entry.
        cache.put(key, "estimates", ("k",), "good")
        assert cache.get(key, "estimates", ("k",)) == "good"

    def test_unpicklable_value_swallowed(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = cache.problem_key(("fp",))
        cache.put(key, "estimates", ("k",), lambda: None)
        assert cache.stats.errors == 1
        assert cache.stats.stored == 0

    def test_unwritable_root_degrades_to_noop(self, tmp_path):
        marker = tmp_path / "not-a-dir"
        marker.write_text("file in the way", encoding="utf-8")
        cache = DiskCache(marker / "cache")
        key = cache.problem_key(("fp",))
        cache.put(key, "estimates", ("k",), "value")
        assert cache.get(key, "estimates", ("k",)) is None
        assert cache.stats.errors == 1

    def test_namespace_embeds_format_and_version(self, tmp_path):
        from repro import __version__
        cache = DiskCache(tmp_path)
        assert cache.namespace.name \
            == f"v{CACHE_FORMAT}-{__version__}"
        key = cache.problem_key(("fp",))
        cache.put(key, "estimates", ("k",), "value")
        assert all(p.is_relative_to(cache.namespace)
                   for p in tmp_path.rglob("*.pkl"))

    def test_entries_survive_pickle_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = cache.problem_key(("fp",))
        payload = {"nested": [1, 2.5, ("tuple",)], "flag": True}
        cache.put(key, "estimates", ("k",), payload)
        stored = next(cache.namespace.rglob("*.pkl"))
        assert pickle.loads(stored.read_bytes()) == payload


class TestEvaluatorWarmStart:
    def test_warm_start_identical_results_and_counters(self,
                                                       tmp_path):
        problem, policies, mapping = small_problem()

        cold = Evaluator(problem, disk=DiskCache(tmp_path))
        cold_estimate = cold.estimate(policies, mapping)
        cold_design = cold.evaluate_design(policies, mapping)

        plain = Evaluator(problem)
        assert plain.estimate(policies, mapping).timings \
            == cold_estimate.timings

        warm = Evaluator(problem, disk=DiskCache(tmp_path))
        warm_estimate = warm.estimate(policies, mapping)
        warm_design = warm.evaluate_design(policies, mapping)
        assert warm_estimate.timings == cold_estimate.timings
        assert warm_estimate.schedule_length \
            == cold_estimate.schedule_length
        assert warm_design.worst_case_length \
            == cold_design.worst_case_length
        assert warm_design.transparency_degree \
            == cold_design.transparency_degree
        # Disk served the warm run entirely.
        assert warm._disk.stats.hits >= 2
        # In-memory counters are oblivious to the disk tier.
        cold_stats, warm_stats = cold.stats(), warm.stats()
        assert warm_stats.estimates.misses \
            == cold_stats.estimates.misses
        assert warm_stats.designs.misses == cold_stats.designs.misses

    def test_second_lookup_hits_memory_not_disk(self, tmp_path):
        problem, policies, mapping = small_problem()
        evaluator = Evaluator(problem, disk=DiskCache(tmp_path))
        evaluator.estimate(policies, mapping)
        lookups = evaluator._disk.stats.lookups
        evaluator.estimate(policies, mapping)
        assert evaluator._disk.stats.lookups == lookups

    def test_corrupt_entries_recomputed(self, tmp_path):
        problem, policies, mapping = small_problem()
        cold = Evaluator(problem, disk=DiskCache(tmp_path))
        oracle = cold.estimate(policies, mapping)
        for entry in DiskCache(tmp_path).namespace.rglob("*.pkl"):
            entry.write_bytes(b"corrupt")
        warm = Evaluator(problem, disk=DiskCache(tmp_path))
        assert warm.estimate(policies, mapping).timings \
            == oracle.timings
        assert warm._disk.stats.errors >= 1
        assert warm._disk.stats.stored >= 1  # overwritten in place


#: Synthesizes one small design through a disk-backed pool (estimate
#: states) and builds its exact tables (schedule entries).
_WRITE_ENTRIES_SCRIPT = textwrap.dedent("""
    import sys

    from repro.eval import EvaluatorPool
    from repro.model import FaultModel
    from repro.synthesis import TabuSettings, synthesize
    from repro.workloads import GeneratorConfig, generate_workload

    app, arch = generate_workload(GeneratorConfig(processes=8, nodes=2,
                                                  seed=1))
    fault_model = FaultModel(k=2)
    pool = EvaluatorPool(cache_dir=sys.argv[1])
    design = synthesize(app, arch, fault_model, "MXR",
                        settings=TabuSettings(iterations=2,
                                              neighborhood=4),
                        cache=pool)
    pool.evaluator_for(app, arch, fault_model).exact_schedule(
        design.policies, design.mapping)
""")


class TestHashSeedIndependence:
    def test_entries_identical_across_hash_seeds(self, tmp_path):
        """Entry bytes depend on the inputs only, not on the
        interpreter's string-hash seed (hash-ordered containers such
        as frozensets pickle in that order)."""
        src = Path(__file__).resolve().parents[1] / "src"
        trees = []
        for seed in ("0", "1"):
            env = {key: value for key, value in os.environ.items()
                   if not key.startswith("REPRO_")}
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, (str(src), env.get("PYTHONPATH"))))
            env["PYTHONHASHSEED"] = seed
            root = tmp_path / f"seed{seed}"
            done = subprocess.run(
                [sys.executable, "-c", _WRITE_ENTRIES_SCRIPT,
                 str(root)],
                env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            trees.append({path.relative_to(root): path.read_bytes()
                          for path in root.rglob("*.pkl")})
        first, second = trees
        assert first and sorted(first) == sorted(second)
        differing = [str(path) for path in sorted(first)
                     if first[path] != second[path]]
        assert not differing, (
            f"{len(differing)} of {len(first)} entries differ: "
            f"{differing[:3]}")


class TestPoolWiring:
    def test_pool_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert cache_dir_default() is None
        assert EvaluatorPool().disk_cache is None

    def test_pool_reads_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        assert cache_dir_default() == str(tmp_path / "cache")
        pool = EvaluatorPool()
        assert pool.disk_cache is not None
        assert pool.disk_cache.root == tmp_path / "cache"

    def test_blank_environment_means_disabled(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "   ")
        assert cache_dir_default() is None
        assert EvaluatorPool().disk_cache is None

    def test_explicit_argument_beats_environment(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "from-env"))
        pool = EvaluatorPool(cache_dir=tmp_path / "explicit")
        assert pool.disk_cache.root == tmp_path / "explicit"
        assert EvaluatorPool(cache_dir=None).disk_cache is None

    def test_pool_shares_cache_across_evaluators(self, tmp_path):
        problem, policies, mapping = small_problem()
        pool = EvaluatorPool(cache_dir=tmp_path)
        evaluator = pool.evaluator_for(
            problem.app, problem.arch, problem.fault_model)
        assert evaluator._disk is pool.disk_cache
        evaluator.estimate(policies, mapping)
        assert pool.disk_cache.stats.stored >= 1


class TestCachedSweepIdentity:
    """End to end: a DSE sweep with the cache on is byte-identical
    to one without, and the warm rerun computes nothing afresh."""

    @pytest.fixture(scope="class")
    def dse_config(self):
        from repro.dse import DseConfig, SpaceConfig
        from repro.synthesis.tabu import TabuSettings
        return DseConfig(
            workload={"processes": 6, "nodes": 2, "seed": 1},
            space=SpaceConfig(strategies=("MXR", "MR"), k_values=(1,),
                              checkpoint_counts=(0,),
                              transparency_samples=1, seed=1),
            chunks=2, seed=0,
            settings=TabuSettings(iterations=4, neighborhood=4,
                                  bus_contention=False))

    def test_dse_identical_with_and_without_cache(self, dse_config,
                                                  tmp_path,
                                                  monkeypatch):
        import json

        from repro.dse import run_dse

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        plain = run_dse(dse_config)

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        cold = run_dse(dse_config)
        warm = run_dse(dse_config)

        def payload(report):
            return json.dumps(report.to_jsonable(), sort_keys=True)

        assert payload(cold) == payload(plain)
        assert payload(warm) == payload(plain)
        assert any((tmp_path / "cache").rglob("*.pkl"))
