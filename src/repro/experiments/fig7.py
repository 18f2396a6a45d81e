"""Paper Fig. 7 — efficiency of fault tolerance policy assignment.

For applications of 20..100 processes (2–6 nodes, k = 3..7, drawn per
seed as in §6) the experiment measures the fault tolerance overhead

    FTO(s) = (L_s − L_nft) / L_nft × 100

of every strategy ``s`` and reports the average percentage deviation of
MR, SFX and MX from the MXR baseline:

    dev(s) = (FTO(s) − FTO(MXR)) / FTO(MXR) × 100.

The paper reports MXR beating MR by 77 % and MX by 17.6 % on average,
with SFX in between; what this reproduction asserts is the ordering
``0 = dev(MXR) < dev(MX) < dev(SFX) < dev(MR)`` and the magnitude
regimes (MR worse by tens of percent, MX by double digits).

The sweep is expressed as a grid of independent (size, seed) cells and
executed by :mod:`repro.engine` — serially or across worker processes
(``run_fig7(..., engine_config=EngineConfig(workers=N))`` / ``repro
batch --experiment fig7``), with one :class:`~repro.eval.EvaluatorPool`
per cell shared by the NFT baseline and all four strategies.
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
from repro.schedule.analysis import percentage_deviation
from repro.synthesis.strategies import nft_baseline, synthesize
from repro.synthesis.tabu import TabuSettings
from repro.utils.rng import derive_seed
from repro.workloads.generator import (
    generate_workload,
    paper_experiment_config,
)

#: Strategies compared against the MXR baseline, in plot order.
COMPARED = ("MR", "SFX", "MX")

#: Table header matching :meth:`Fig7Row.as_cells`.
ROW_HEADER = (["processes", "samples", "FTO(MXR) %"]
              + [f"dev {s} %" for s in COMPARED])

#: Import-path runner reference resolved by engine workers.
CELL_RUNNER = "repro.experiments.fig7:run_fig7_cell"


@dataclass(frozen=True)
class Fig7Config:
    """Sweep configuration.

    ``paper`` uses the paper's five sizes; ``quick`` (the default for
    benchmarks) trades sweep width for runtime.
    """

    sizes: tuple[int, ...] = (20, 40, 60, 80, 100)
    seeds: tuple[int, ...] = (1, 2, 3)
    settings: TabuSettings = field(default_factory=TabuSettings)

    @classmethod
    def quick(cls) -> "Fig7Config":
        """Small sweep for CI/benchmarks."""
        return cls(
            sizes=(20, 40),
            seeds=(1, 2),
            settings=TabuSettings(iterations=16, neighborhood=12,
                                  bus_contention=False),
        )

    @classmethod
    def paper(cls) -> "Fig7Config":
        """The full sweep of the paper's Fig. 7."""
        return cls()


@dataclass
class Fig7Row:
    """One point per strategy and application size."""

    processes: int
    samples: int
    avg_fto_mxr: float
    avg_deviation: dict[str, float]

    def as_cells(self) -> list:
        return ([self.processes, self.samples,
                 f"{self.avg_fto_mxr:.1f}"]
                + [f"{self.avg_deviation[s]:.1f}" for s in COMPARED])


def fig7_jobs(config: Fig7Config | None = None) -> list[BatchJob]:
    """Expand the sweep into one engine job per (size, seed) cell."""
    config = config or Fig7Config()
    return grid_jobs(
        CELL_RUNNER,
        {"size": config.sizes, "seed": config.seeds},
        prefix="fig7",
        common={"settings": asdict(config.settings)},
    )


def run_fig7_cell(params: Mapping[str, object]) -> dict:
    """One sweep cell: all strategies on one (size, seed) workload.

    Pure function of its params (the engine's worker contract): the
    tabu seed is derived from the sweep seed plus the grid coordinates
    with :func:`repro.utils.rng.derive_seed`, so cells are reproducible
    in isolation and independent of execution order. One evaluator
    pool is shared by the NFT baseline and all four strategies.
    """
    size = int(params["size"])
    seed = int(params["seed"])
    base = TabuSettings(**params["settings"])
    settings = replace(base, seed=derive_seed(base.seed, "fig7",
                                              size, seed))
    gen_config, k = paper_experiment_config(size, seed)
    app, arch = generate_workload(gen_config)
    fault_model = FaultModel(k=k)
    pool = EvaluatorPool()
    baseline = nft_baseline(app, arch, settings, cache=pool)
    mxr = synthesize(app, arch, fault_model, "MXR", settings=settings,
                     baseline=baseline, cache=pool)
    deviations: dict[str, float] = {}
    evaluations = mxr.evaluations
    for strategy in COMPARED:
        result = synthesize(app, arch, fault_model, strategy,
                            settings=settings, baseline=baseline,
                            cache=pool)
        deviations[strategy] = percentage_deviation(result.fto, mxr.fto)
        evaluations += result.evaluations - baseline.evaluations
    stats = pool.stats().estimates
    return {
        "size": size,
        "seed": seed,
        "nodes": gen_config.nodes,
        "k": k,
        "fto_mxr": mxr.fto,
        "deviations": deviations,
        "evaluations": evaluations,
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "cache_entries": stats.entries,
    }


def rows_from_cells(cells: Sequence[Mapping], *,
                    sizes: Sequence[int] | None = None) -> list[Fig7Row]:
    """Aggregate per-cell results into one row per application size."""
    return [
        Fig7Row(
            processes=size,
            samples=len(group),
            avg_fto_mxr=mean([c["fto_mxr"] for c in group]),
            avg_deviation={
                s: mean([c["deviations"][s] for c in group])
                for s in COMPARED
            },
        )
        for size, group in group_cells_by_size(cells, sizes)
    ]


def paper_comparison(rows: Sequence[Fig7Row]) -> list[str]:
    """The paper's average deviations next to the measured ones."""
    overall = {
        s: mean([row.avg_deviation[s] for row in rows]) for s in COMPARED
    }
    return ["paper: MR ≈ +77 %, MX ≈ +17.6 % (SFX between)",
            "measured averages: "
            + ", ".join(f"{s} {overall[s]:+.1f} %" for s in COMPARED)]


def run_fig7(config: Fig7Config | None = None, *,
             engine_config: EngineConfig | None = None,
             ) -> list[Fig7Row]:
    """Run the sweep and return one row per application size."""
    config = config or Fig7Config()
    report = BatchEngine(engine_config).run(fig7_jobs(config))
    return rows_from_cells(report.results(), sizes=config.sizes)
