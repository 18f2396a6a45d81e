"""Paper Fig. 8 — efficiency of checkpoint optimization.

For applications of 40..100 processes using rollback recovery with
checkpointing, two checkpoint-count assignments are compared on the
same optimized mapping:

* **baseline [27]**: each process gets its isolated optimum
  ``n⁰ = sqrt(kC/(α+χ))`` (strategy ``MC``);
* **optimized [15]**: the global steepest-descent of
  :mod:`repro.synthesis.checkpoint_opt` (strategy ``MC_GLOBAL``).

Reported is the average percentage deviation of the baseline's FTO
from the optimized FTO — the paper's y-axis, where "larger deviation
means smaller overhead" for the proposed technique:

    dev = (FTO_27 − FTO_15) / FTO_27 × 100.

Like Fig. 7, the sweep is a grid of independent (size, seed) cells
executed by :mod:`repro.engine` with a per-cell estimation cache —
particularly effective here because the MC and MC_GLOBAL runs share
their whole mapping search.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from collections.abc import Mapping, Sequence

from repro.engine.grid import grid_jobs
from repro.engine.jobs import BatchJob
from repro.engine.runner import BatchEngine, EngineConfig
from repro.eval import EvaluatorPool
from repro.experiments.reporting import group_cells_by_size, mean
from repro.model.fault_model import FaultModel
from repro.synthesis.strategies import nft_baseline, synthesize
from repro.synthesis.tabu import TabuSettings
from repro.utils.rng import DeterministicRng, derive_seed
from repro.workloads.generator import GeneratorConfig, generate_workload

#: Import-path runner reference resolved by engine workers.
CELL_RUNNER = "repro.experiments.fig8:run_fig8_cell"

#: Table header matching :meth:`Fig8Row.as_cells`.
ROW_HEADER = ["processes", "samples", "FTO[27] %", "FTO[15] %",
              "deviation %"]


@dataclass(frozen=True)
class Fig8Config:
    """Sweep configuration for the checkpointing experiment."""

    sizes: tuple[int, ...] = (40, 60, 80, 100)
    seeds: tuple[int, ...] = (1, 2, 3)
    settings: TabuSettings = field(default_factory=TabuSettings)
    #: Fault budgets drawn from this range per sample (checkpointing
    #: pays off with several faults; the paper used k up to 7).
    k_range: tuple[int, int] = (3, 6)
    #: Checkpointing overheads are the lever of this experiment; the
    #: fractions are higher than Fig. 7's defaults so the χ/α trade-off
    #: is visible, as in [15]'s setup.
    chi_fraction: float = 0.10
    alpha_fraction: float = 0.05

    @classmethod
    def quick(cls) -> "Fig8Config":
        """Small sweep for CI/benchmarks."""
        return cls(
            sizes=(40, 60),
            seeds=(1,),
            settings=TabuSettings(iterations=12, neighborhood=10,
                                  bus_contention=False),
        )

    @classmethod
    def paper(cls) -> "Fig8Config":
        """The full sweep of the paper's Fig. 8."""
        return cls()


@dataclass
class Fig8Row:
    """One data point: avg deviation for one application size."""

    processes: int
    samples: int
    avg_fto_baseline: float
    avg_fto_optimized: float
    avg_deviation: float

    def as_cells(self) -> list:
        return [self.processes, self.samples,
                f"{self.avg_fto_baseline:.1f}",
                f"{self.avg_fto_optimized:.1f}",
                f"{self.avg_deviation:.1f}"]


def fig8_jobs(config: Fig8Config | None = None) -> list[BatchJob]:
    """Expand the sweep into one engine job per (size, seed) cell."""
    config = config or Fig8Config()
    return grid_jobs(
        CELL_RUNNER,
        {"size": config.sizes, "seed": config.seeds},
        prefix="fig8",
        common={
            "settings": asdict(config.settings),
            "k_range": list(config.k_range),
            "chi_fraction": config.chi_fraction,
            "alpha_fraction": config.alpha_fraction,
        },
    )


def run_fig8_cell(params: Mapping[str, object]) -> dict:
    """One sweep cell: MC vs MC_GLOBAL on one (size, seed) workload."""
    size = int(params["size"])
    seed = int(params["seed"])
    base = TabuSettings(**params["settings"])
    k_lo, k_hi = params["k_range"]
    settings = replace(base, seed=derive_seed(base.seed, "fig8",
                                              size, seed))
    rng = DeterministicRng(seed * 271 + size)
    nodes = rng.randint(2, 6)
    k = rng.randint(int(k_lo), int(k_hi))
    gen_config = GeneratorConfig(
        processes=size,
        nodes=nodes,
        seed=seed * 7919 + size + 17,
        chi_fraction=float(params["chi_fraction"]),
        alpha_fraction=float(params["alpha_fraction"]),
    )
    app, arch = generate_workload(gen_config)
    fault_model = FaultModel(k=k)
    pool = EvaluatorPool()
    baseline = nft_baseline(app, arch, settings, cache=pool)
    local = synthesize(app, arch, fault_model, "MC",
                       settings=settings, baseline=baseline,
                       cache=pool)
    optimized = synthesize(app, arch, fault_model, "MC_GLOBAL",
                           settings=settings, baseline=baseline,
                           cache=pool)
    fto_baseline = local.fto
    fto_optimized = optimized.fto
    if fto_baseline > 0:
        deviation = (fto_baseline - fto_optimized) / fto_baseline * 100.0
    else:
        deviation = 0.0
    stats = pool.stats().estimates
    return {
        "size": size,
        "seed": seed,
        "nodes": nodes,
        "k": k,
        "fto_baseline": fto_baseline,
        "fto_optimized": fto_optimized,
        "deviation": deviation,
        "evaluations": (local.evaluations + optimized.evaluations
                        - baseline.evaluations),
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "cache_entries": stats.entries,
    }


def rows_from_cells(cells: Sequence[Mapping], *,
                    sizes: Sequence[int] | None = None) -> list[Fig8Row]:
    """Aggregate per-cell results into one row per application size."""
    return [
        Fig8Row(
            processes=size,
            samples=len(group),
            avg_fto_baseline=mean([c["fto_baseline"] for c in group]),
            avg_fto_optimized=mean([c["fto_optimized"]
                                    for c in group]),
            avg_deviation=mean([c["deviation"] for c in group]),
        )
        for size, group in group_cells_by_size(cells, sizes)
    ]


def paper_comparison(rows: Sequence[Fig8Row]) -> list[str]:
    """The paper's claim the measured rows are read against."""
    return ["paper: deviation grows with application size "
            "(larger deviation = smaller overhead)"]


def run_fig8(config: Fig8Config | None = None, *,
             engine_config: EngineConfig | None = None,
             ) -> list[Fig8Row]:
    """Run the sweep and return one row per application size."""
    config = config or Fig8Config()
    report = BatchEngine(engine_config).run(fig8_jobs(config))
    return rows_from_cells(report.results(), sizes=config.sizes)
