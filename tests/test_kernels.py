"""Array-kernel seams: escape hatch, telemetry, cache identity.

The heavy bit-identity legs live in ``tests/test_oracle.py`` (the
grid asserts full estimate and simulation equality kernel-on vs
``REPRO_KERNELS=0`` on every design; the move-walk property closes
the compute-kernel == compute-oracle == ``reevaluate`` triangle).
This file pins everything *around* those legs:

* the ``REPRO_KERNELS`` escape hatch parsing and CLI threading;
* the batched kernel's oracle fallback (counted, bit-identical) and
  its fault-signature index (zero-count plan keys patch nothing);
* the exhaustive paths' standard-library-only footprint (no numpy);
* report ``kernels`` telemetry: kernels-on and kernels-off payloads
  differ in exactly the ``enabled`` flag;
* the cache seam: :class:`~repro.eval.diskcache.DiskCache` keys and
  ``solution_fingerprint`` never depend on the kernels switch, so a
  cache warmed by one path serves the other.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.campaigns import CampaignConfig, run_campaign
from repro.eval.core import EvaluatorPool
from repro.ftcpg import FaultPlan
from repro.kernels import (
    KERNELS_ENV,
    counters,
    kernels_enabled,
    kernels_info,
)
from repro.kernels.batch import BatchedSimulator
from repro.model import FaultModel
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.runtime import simulate
from repro.schedule import synthesize_schedule
from repro.schedule.estimation import solution_fingerprint
from repro.synthesis import initial_mapping
from repro.synthesis.tabu import TabuSettings
from repro.verify import VerifyConfig, run_verification
from repro.workloads import GeneratorConfig, generate_workload

QUICK_SETTINGS = TabuSettings(iterations=4, neighborhood=4,
                              bus_contention=False)


def _small_design(seed=1, k=2):
    app, arch = generate_workload(GeneratorConfig(
        processes=5, nodes=2, seed=seed, layer_width=3))
    fault_model = FaultModel(k=k)
    policies = PolicyAssignment.uniform(
        app, ProcessPolicy.re_execution(k))
    mapping = initial_mapping(app, arch, policies)
    schedule = synthesize_schedule(app, arch, mapping, policies,
                                   fault_model)
    return app, arch, mapping, policies, fault_model, schedule


class TestEscapeHatch:
    @pytest.mark.parametrize("value,enabled", [
        ("1", True), ("yes", True), ("on", True), ("", True),
        ("0", False), ("false", False), ("OFF", False), ("No", False),
        (" 0 ", False),
    ])
    def test_env_parsing(self, monkeypatch, value, enabled):
        monkeypatch.setenv(KERNELS_ENV, value)
        assert kernels_enabled() is enabled

    def test_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv(KERNELS_ENV, raising=False)
        assert kernels_enabled() is True

    def test_info_block_mirrors_switch(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "0")
        off = kernels_info(compiled_tables=2, batched_scenarios=7)
        monkeypatch.setenv(KERNELS_ENV, "1")
        on = kernels_info(compiled_tables=2, batched_scenarios=7)
        assert off == {"enabled": False, "compiled_tables": 2,
                       "batched_scenarios": 7}
        # The switch moves exactly one value — the identity the
        # report differentials below rely on.
        assert on == {**off, "enabled": True}


class TestBatchedFallback:
    def test_over_budget_plan_falls_back_identically(self):
        app, arch, mapping, policies, fm, schedule = _small_design()
        batched = BatchedSimulator(app, arch, mapping, policies, fm,
                                   schedule)
        name = sorted(app.process_names)[0]
        # k+1 faults on one copy: outside the kernel's plan universe.
        plan = FaultPlan({(name, 0): (fm.k + 1,)})
        counters.reset()
        outcome = batched.simulate_plan(plan)
        assert counters.oracle_fallbacks == 1
        assert counters.batched_scenarios == 0
        assert outcome == simulate(app, arch, mapping, policies, fm,
                                   schedule, plan)

    def test_in_budget_plans_count_as_batched(self):
        app, arch, mapping, policies, fm, schedule = _small_design()
        batched = BatchedSimulator(app, arch, mapping, policies, fm,
                                   schedule)
        name = sorted(app.process_names)[0]
        counters.reset()
        outcome = batched.simulate_plan(FaultPlan({(name, 0): (1,)}))
        assert counters.batched_scenarios == 1
        assert outcome == simulate(
            app, arch, mapping, policies, fm, schedule,
            FaultPlan({(name, 0): (1,)}))

    def test_zero_count_key_patches_nothing(self, monkeypatch):
        """An explicit all-zero distribution is the fault-free state:
        the result equals the oracle's and the plan evaluates the same
        signature subsets as the plan without that key."""
        app, arch, mapping, policies, fm, schedule = _small_design()
        batched = BatchedSimulator(app, arch, mapping, policies, fm,
                                   schedule)
        first, second = sorted(app.process_names)[:2]
        patched_sets: list[list[int]] = []
        fired_ids = BatchedSimulator._fired_ids

        def spy(self, state, patched):
            patched_sets.append(list(patched))
            return fired_ids(self, state, patched)

        monkeypatch.setattr(BatchedSimulator, "_fired_ids", spy)
        plans = [FaultPlan({(first, 0): (1,)}),
                 FaultPlan({(first, 0): (1,), (second, 0): (0,)}),
                 FaultPlan({}),
                 FaultPlan({(second, 0): (0,)})]
        counters.reset()
        for plan in plans:
            assert batched.simulate_plan(plan) == simulate(
                app, arch, mapping, policies, fm, schedule, plan)
        assert counters.batched_scenarios == len(plans)
        assert patched_sets[0] == patched_sets[1] != []
        assert patched_sets[2] == patched_sets[3] == []


#: Runs one ``repro verify`` chunk and one ``dse --verify-frontier``
#: certification, then reports whether numpy got imported.
_NO_NUMPY_SCRIPT = textwrap.dedent("""
    import sys

    from repro.dse import DseConfig, SpaceConfig, run_dse
    from repro.engine import EngineConfig
    from repro.synthesis.tabu import TabuSettings
    from repro.verify import VerifyConfig, run_verify_chunk, verify_jobs

    settings = TabuSettings(iterations=2, neighborhood=4,
                            bus_contention=False)
    config = VerifyConfig(workload={"processes": 5, "nodes": 2,
                                    "seed": 1},
                          k=2, chunks=2, settings=settings)
    cell = run_verify_chunk(verify_jobs(config)[1].params_dict())
    assert cell["stats"]["scenarios"] > 0
    report = run_dse(DseConfig(
        workload={"processes": 3, "nodes": 2, "seed": 1},
        space=SpaceConfig(k_values=(2,), strategies=("MX",),
                          checkpoint_counts=(0, 1),
                          transparency_samples=0),
        chunks=1, settings=settings, verify_frontier=True),
        engine_config=EngineConfig(workers=1))
    assert any(point.extras.get("verified_scenarios")
               for point in report.frontier)
    print("numpy" in sys.modules)
""")


class TestStandardLibraryOnly:
    def test_exhaustive_paths_leave_numpy_unimported(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(src), env.get("PYTHONPATH"))))
        env[KERNELS_ENV] = "1"
        done = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


def _normalized(payload: dict) -> dict:
    """Payload with the one legitimate kernels-switch delta removed."""
    normalized = json.loads(json.dumps(payload))
    normalized["kernels"]["enabled"] = None
    return normalized


class TestReportTelemetry:
    VERIFY = dict(workload={"processes": 5, "nodes": 2, "seed": 1},
                  k=2, chunks=2, settings=QUICK_SETTINGS)
    CAMPAIGN = dict(workload={"processes": 5, "nodes": 2, "seed": 3},
                    k=2, samples=20, chunks=2, sampler="stratified")

    def test_verify_report_differs_only_in_enabled(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "1")
        on = run_verification(VerifyConfig(**self.VERIFY)).to_jsonable()
        monkeypatch.setenv(KERNELS_ENV, "0")
        off = run_verification(VerifyConfig(**self.VERIFY)).to_jsonable()
        assert on["kernels"]["enabled"] is True
        assert off["kernels"]["enabled"] is False
        assert on["kernels"]["batched_scenarios"] \
            == on["scenarios_total"]
        assert _normalized(on) == _normalized(off)

    def test_campaign_report_differs_only_in_enabled(self,
                                                     monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "1")
        on = run_campaign(CampaignConfig(**self.CAMPAIGN)).to_jsonable()
        monkeypatch.setenv(KERNELS_ENV, "0")
        off = run_campaign(
            CampaignConfig(**self.CAMPAIGN)).to_jsonable()
        assert on["kernels"]["enabled"] is True
        assert off["kernels"]["enabled"] is False
        assert _normalized(on) == _normalized(off)


class TestCacheIdentityAcrossKernels:
    """The PR's pinned regression: cache keys kernels on == off."""

    def test_solution_fingerprint_ignores_switch(self, monkeypatch):
        app, arch, mapping, policies, fm, __ = _small_design()
        monkeypatch.setenv(KERNELS_ENV, "1")
        on = solution_fingerprint(policies, mapping)
        monkeypatch.setenv(KERNELS_ENV, "0")
        assert solution_fingerprint(policies, mapping) == on

    def _warm(self, cache_dir, app, arch, mapping, policies, fm):
        pool = EvaluatorPool(cache_dir=cache_dir)
        evaluator = pool.evaluator_for(app, arch, fm)
        estimate = evaluator.estimate(policies, mapping,
                                      slack_sharing="budgeted")
        evaluator.exact_schedule(policies, mapping)
        return pool, estimate

    def test_disk_cache_keys_identical(self, tmp_path, monkeypatch):
        app, arch, mapping, policies, fm, __ = _small_design()
        monkeypatch.setenv(KERNELS_ENV, "1")
        __, est_on = self._warm(tmp_path / "on", app, arch, mapping,
                                policies, fm)
        monkeypatch.setenv(KERNELS_ENV, "0")
        __, est_off = self._warm(tmp_path / "off", app, arch, mapping,
                                 policies, fm)
        assert est_on == est_off
        layout = {
            root: sorted(p.relative_to(tmp_path / root).as_posix()
                         for p in (tmp_path / root).rglob("*.pkl"))
            for root in ("on", "off")}
        assert layout["on"] == layout["off"]
        assert layout["on"], "expected cached entries on disk"

    def test_kernel_warmed_cache_serves_the_oracle(self, tmp_path,
                                                   monkeypatch):
        app, arch, mapping, policies, fm, __ = _small_design()
        monkeypatch.setenv(KERNELS_ENV, "1")
        __, est_on = self._warm(tmp_path, app, arch, mapping,
                                policies, fm)
        monkeypatch.setenv(KERNELS_ENV, "0")
        pool, est_off = self._warm(tmp_path, app, arch, mapping,
                                   policies, fm)
        assert est_on == est_off
        disk = pool.disk_cache
        assert disk is not None and disk.stats.hits > 0
        assert disk.stats.misses == 0
