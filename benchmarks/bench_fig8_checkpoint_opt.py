"""Benchmark + regeneration harness for paper Fig. 8.

Regenerates the checkpoint-optimization comparison: the FTO of the
global checkpoint optimization ([15], strategy ``MC_GLOBAL``) against
the per-process [27] baseline (``MC``), reporting the deviation the
paper plots (larger = smaller overhead). The timed portion is the
global optimization pass.

Run:  pytest benchmarks/bench_fig8_checkpoint_opt.py --benchmark-only

The full paper sweep is
``repro batch --experiment fig8 --profile paper``.
"""

from __future__ import annotations

import pytest

from repro.model import FaultModel
from repro.synthesis import (
    TabuSettings,
    assign_local_optimal_checkpoints,
    nft_baseline,
    optimize_checkpoints_globally,
    synthesize,
)
from repro.utils.rng import DeterministicRng
from repro.workloads.generator import GeneratorConfig, generate_workload

SETTINGS = TabuSettings(iterations=12, neighborhood=10,
                        bus_contention=False)


@pytest.mark.parametrize("size", [40, 60])
def test_fig8_checkpoint_optimization(benchmark, size):
    rng = DeterministicRng(271 + size)
    nodes = rng.randint(2, 6)
    k = rng.randint(3, 6)
    app, arch = generate_workload(GeneratorConfig(
        processes=size, nodes=nodes, seed=7919 + size,
        chi_fraction=0.10, alpha_fraction=0.05))
    fault_model = FaultModel(k=k)
    baseline = nft_baseline(app, arch, SETTINGS)
    local = synthesize(app, arch, fault_model, "MC", settings=SETTINGS,
                       baseline=baseline)

    def optimize_globally():
        policies = assign_local_optimal_checkpoints(
            app, local.policies, k, mapping=local.mapping)
        return optimize_checkpoints_globally(
            app, arch, local.mapping, policies, fault_model,
            bus_contention=False)

    _policies, estimate, evaluations = benchmark.pedantic(
        optimize_globally, rounds=1, iterations=1)

    fto_baseline = local.fto
    fto_optimized = (estimate.schedule_length - baseline.length) \
        / baseline.length * 100.0
    deviation = ((fto_baseline - fto_optimized) / fto_baseline * 100.0
                 if fto_baseline > 0 else 0.0)

    benchmark.extra_info["processes"] = size
    benchmark.extra_info["k"] = k
    benchmark.extra_info["fto_local_27"] = round(fto_baseline, 1)
    benchmark.extra_info["fto_global_15"] = round(fto_optimized, 1)
    benchmark.extra_info["deviation_pct"] = round(deviation, 1)
    benchmark.extra_info["descent_evaluations"] = evaluations

    # Paper Fig. 8: the global optimization never loses to the local
    # per-process optimum.
    assert fto_optimized <= fto_baseline + 1e-6
    assert deviation >= -1e-6
