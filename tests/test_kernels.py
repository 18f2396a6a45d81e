"""Batched-kernel seams: fallback, standard-library footprint.

The heavy bit-identity leg lives in ``tests/test_oracle.py`` (the
grid asserts full simulation equality of the batched scenario kernel
against ``simulate()`` on every swept scenario of every design). This
file pins everything *around* that leg:

* the batched kernel's oracle fallback (counted, bit-identical) and
  its fault-signature index (zero-count plan keys patch nothing);
* the exhaustive paths' standard-library-only footprint (no numpy).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.ftcpg import FaultPlan
from repro.kernels import counters
from repro.kernels.batch import BatchedSimulator
from repro.model import FaultModel
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.runtime import simulate
from repro.schedule import synthesize_schedule
from repro.synthesis import initial_mapping
from repro.workloads import GeneratorConfig, generate_workload


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
        done = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"
