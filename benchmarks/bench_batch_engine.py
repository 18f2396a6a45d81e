"""Benchmark: batch engine throughput, serial vs parallel, + caching.

Runs a Fig. 7-style sweep grid twice — once serially, once across a
worker pool — and records wall times, the speedup, and the estimation
cache hit rate in ``extra_info``.  Two properties are asserted:

* the parallel report is byte-identical to the serial one (the
  engine's core correctness guarantee);
* on a machine with >= 4 cores, the 4-worker run is at least 2x
  faster than the serial baseline (the sweep has enough independent
  cells that the slowest cell does not dominate the makespan).

Run:  pytest benchmarks/bench_batch_engine.py --benchmark-only

``REPRO_BENCH_PROFILE=full`` widens the grid (default: quick).
"""

from __future__ import annotations

import os
import time

from repro.engine import BatchEngine, EngineConfig
from repro.experiments.fig7 import Fig7Config, fig7_jobs
from repro.experiments.reporting import cache_stats_from_cells
from repro.synthesis.tabu import TabuSettings

QUICK = os.environ.get("REPRO_BENCH_PROFILE", "quick") != "full"

#: More seeds than the experiment's quick profile: parallel speedup
#: needs enough cells that the pool stays busy behind the slowest one.
CONFIG = Fig7Config(
    sizes=(20, 30) if QUICK else (20, 40, 60),
    seeds=(1, 2, 3, 4) if QUICK else (1, 2, 3, 4, 5, 6),
    settings=TabuSettings(iterations=10, neighborhood=8,
                          bus_contention=False),
)
WORKERS = min(4, os.cpu_count() or 1)


def test_batch_engine_parallel_speedup(benchmark):
    jobs = fig7_jobs(CONFIG)

    started = time.perf_counter()
    serial = BatchEngine(EngineConfig(workers=1)).run(jobs)
    serial_time = time.perf_counter() - started

    parallel_engine = BatchEngine(EngineConfig(workers=WORKERS))
    report = benchmark.pedantic(lambda: parallel_engine.run(jobs),
                                rounds=1, iterations=1)
    parallel_time = report.wall_time

    # The engine's core guarantee: fan-out never changes results.
    assert report.to_json() == serial.to_json()

    cells = report.results()
    stats = cache_stats_from_cells(cells)
    speedup = serial_time / parallel_time if parallel_time else 0.0

    benchmark.extra_info["cells"] = len(cells)
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["serial_seconds"] = round(serial_time, 2)
    benchmark.extra_info["parallel_seconds"] = round(parallel_time, 2)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cache_hit_rate"] = round(stats.hit_rate, 3)

    # Caching pays: a meaningful share of estimator calls is served
    # from the per-cell cache even on small search budgets.
    assert stats.hits > 0
    if (os.cpu_count() or 1) >= 4 and WORKERS >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup with {WORKERS} workers, "
            f"got {speedup:.2f}x "
            f"(serial {serial_time:.1f}s, parallel {parallel_time:.1f}s)")


def test_estimation_cache_hit_rate(benchmark):
    """Cache effectiveness of one synthesis cell, serial."""
    from repro.eval import EvaluatorPool
    from repro.model import FaultModel
    from repro.synthesis import nft_baseline, synthesize
    from repro.workloads.generator import (
        generate_workload,
        paper_experiment_config,
    )

    config, k = paper_experiment_config(20 if QUICK else 40, 1)
    app, arch = generate_workload(config)
    settings = CONFIG.settings

    def run_cell():
        pool = EvaluatorPool()
        baseline = nft_baseline(app, arch, settings, cache=pool)
        synthesize(app, arch, FaultModel(k=k), "MXR",
                   settings=settings, baseline=baseline, cache=pool)
        return pool.stats().estimates

    stats = benchmark.pedantic(run_cell, rounds=1, iterations=1)
    benchmark.extra_info["hits"] = stats.hits
    benchmark.extra_info["misses"] = stats.misses
    benchmark.extra_info["hit_rate"] = round(stats.hit_rate, 3)
    # The floors.json pin on hit_rate tracks how often this tabu cell
    # revisits designs, not cache correctness (the assert below is
    # the correctness guard). Re-pinned 0.1 -> 0.05 when the
    # estimator's replica serialization order changed the cost
    # landscape and the deterministic search trajectory revisits
    # fewer designs on this tiny budget.
    assert stats.hits > 0
