"""Benchmark: sharded verification vs the serial oracle.

``run_verification`` on a Fig. 7-scale workload (20 processes quick /
30 full, ``k = 2``) serially and across a worker pool: the two reports
must agree byte for byte (the chunk layout pins the fold order, so the
worker count cannot show in the output). The legacy-shaped baseline
derives the design once, as a single verify chunk does, and replays
every scenario through the one-shot ``simulate()`` oracle. On a
>= 4-core machine in the full profile, the parallel sharded run must
beat that baseline >= 3x end to end (at quick scale the per-chunk
synthesis overhead dominates the small scenario set, so the
wall-clock gate stays out of that profile). That the batched kernel
equals ``simulate()`` scenario by scenario is tier-1's job
(``tests/test_oracle.py``); its speedup floor lives in
``benchmarks/bench_kernels.py``.

Run:  pytest benchmarks/bench_verify.py --benchmark-only

``REPRO_BENCH_PROFILE=full`` widens the workload (default: quick).
"""

from __future__ import annotations

import os
import time

from repro.campaigns.runner import build_design
from repro.engine import EngineConfig
from repro.ftcpg import iter_fault_plans
from repro.runtime import simulate
from repro.synthesis.tabu import TabuSettings
from repro.verify import (
    VerificationStats,
    VerifyConfig,
    load_verify_workload,
    run_verification,
    verify_jobs,
)

QUICK = os.environ.get("REPRO_BENCH_PROFILE", "quick") != "full"

#: Fig. 7 territory: the paper sweeps 20..80 processes.
PROCESSES = 20 if QUICK else 30
SETTINGS = TabuSettings(iterations=6, neighborhood=6,
                        bus_contention=False)
CONFIG = VerifyConfig(
    workload={"processes": PROCESSES, "nodes": 3, "seed": 1},
    k=2, chunks=4, settings=SETTINGS)
WORKERS = min(4, os.cpu_count() or 1)

#: Acceptance floor for the parallel sharded run (full profile).
MIN_SPEEDUP = 3.0


def _oracle_baseline(config: VerifyConfig) -> VerificationStats:
    """One chunk's work through the oracle: derive the design as
    ``run_verify_chunk`` does, then replay every scenario through
    ``simulate()``."""
    app, arch, transparency = load_verify_workload(config.workload)
    design = build_design(app, arch, verify_jobs(config)[0].params_dict(),
                          transparency=transparency)
    stats = VerificationStats()
    for plan in iter_fault_plans(app, design.result.policies, config.k):
        stats.observe(simulate(*design.executor_args, plan),
                      transparency)
    return stats


def test_sharded_engine_identity_and_speedup(benchmark):
    # Legacy-shaped baseline: one design, one process, every scenario
    # through the one-shot simulate() oracle.
    started = time.perf_counter()
    baseline = _oracle_baseline(CONFIG)
    baseline_time = time.perf_counter() - started

    started = time.perf_counter()
    serial = run_verification(CONFIG,
                              engine_config=EngineConfig(workers=1))
    serial_time = time.perf_counter() - started

    parallel_engine = EngineConfig(workers=WORKERS)
    parallel = benchmark.pedantic(
        lambda: run_verification(CONFIG,
                                 engine_config=parallel_engine),
        rounds=1, iterations=1)
    parallel_time = benchmark.stats.stats.total

    # Byte-identical reports across worker counts.
    assert parallel.to_json() == serial.to_json()
    # The chunk layout changes the merge fold, never the verdict.
    assert baseline.failures == serial.stats.failures
    assert baseline.scenarios == serial.stats.scenarios
    assert baseline.worst_makespan == serial.stats.worst_makespan

    speedup = (baseline_time / parallel_time) if parallel_time else 0.0
    benchmark.extra_info["scenarios"] = serial.scenarios_total
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["baseline_seconds"] = round(baseline_time, 2)
    benchmark.extra_info["serial_seconds"] = round(serial_time, 2)
    benchmark.extra_info["parallel_seconds"] = round(parallel_time, 2)
    benchmark.extra_info["speedup_vs_baseline"] = round(speedup, 2)
    if (os.cpu_count() or 1) >= 4 and WORKERS >= 4 and not QUICK:
        assert speedup >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP}x from sharding + the batched "
            f"kernel with {WORKERS} workers, got {speedup:.2f}x "
            f"(baseline {baseline_time:.1f}s, parallel "
            f"{parallel_time:.1f}s)")
