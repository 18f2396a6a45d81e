"""Benchmark: sharded verification vs the serial oracle.

``run_verification`` on a Fig. 7-scale workload (20 processes quick /
30 full, ``k = 2``) serially, across a worker pool, and with
``REPRO_KERNELS=0`` (every scenario through the one-shot ``simulate()``
oracle): all three reports must agree byte for byte, except the
oracle report's ``kernels.enabled`` flag (the chunk layout pins the
fold order, so neither worker count nor replay path can show in the
output). On a >= 4-core machine in the full profile, the parallel
sharded run must also beat the legacy-shaped single-chunk oracle
baseline >= 3x end to end (at quick scale the per-chunk synthesis
overhead dominates the small scenario set, so the wall-clock gate
stays out of that profile). The batched kernel's own speedup floor
lives in ``benchmarks/bench_kernels.py``.

Run:  pytest benchmarks/bench_verify.py --benchmark-only

``REPRO_BENCH_PROFILE=full`` widens the workload (default: quick).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace

from repro.engine import EngineConfig
from repro.kernels import KERNELS_ENV
from repro.synthesis.tabu import TabuSettings
from repro.verify import VerifyConfig, run_verification

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


def _without_enabled(report) -> dict:
    """Report payload minus the one value the kernels switch moves."""
    payload = json.loads(report.to_json())
    payload["kernels"]["enabled"] = None
    return payload


def test_sharded_engine_identity_and_speedup(benchmark):
    # Legacy-shaped baseline: one chunk, one worker, every scenario
    # through the one-shot simulate() oracle.
    baseline_config = replace(CONFIG, chunks=1)
    saved = os.environ.get(KERNELS_ENV)
    os.environ[KERNELS_ENV] = "0"
    try:
        started = time.perf_counter()
        baseline = run_verification(
            baseline_config, engine_config=EngineConfig(workers=1))
        baseline_time = time.perf_counter() - started
        # Same sharded layout through the oracle (still serial so the
        # switch reaches the in-process chunk runners).
        forced = run_verification(
            CONFIG, engine_config=EngineConfig(workers=1))
    finally:
        if saved is None:
            del os.environ[KERNELS_ENV]
        else:
            os.environ[KERNELS_ENV] = saved

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

    # Byte-identical reports across worker counts; the oracle path
    # differs in the kernels.enabled flag alone.
    assert parallel.to_json() == serial.to_json()
    assert _without_enabled(forced) == _without_enabled(serial)
    # The chunk layout changes the merge fold, never the verdict.
    assert baseline.ok == serial.ok
    assert baseline.stats.scenarios == serial.stats.scenarios
    assert baseline.stats.worst_makespan \
        == serial.stats.worst_makespan

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
