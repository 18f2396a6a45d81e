"""The transparency/performance Pareto sweep (``repro batch
--experiment pareto``).

Runs the design-space explorer (:mod:`repro.dse`) over a grid of
workloads and reports one epsilon-Pareto frontier per workload — the
multi-workload version of the paper's §3.3 trade-off discussion, and
the scenario-diversity layer on top of the explorer. Every (workload,
chunk) pair is one pure engine job, so the whole sweep shares one
:class:`~repro.engine.runner.BatchEngine` run: one process pool, one
resumable JSONL checkpoint, byte-identical serial vs parallel output.

Profiles:

* ``quick`` — one 8-process/2-node workload, a trimmed space; used by
  the CI docs job, which uploads the JSON report as an artifact;
* ``paper`` — three workload scales with the full strategy set.

Run::

    repro batch --experiment pareto --profile quick --workers 4 \\
        --out pareto.json --csv pareto.csv
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Mapping, Sequence

from repro.dse.archive import DEFAULT_EPSILONS
from repro.dse.explorer import (
    DEFAULT_SETTINGS,
    OBJECTIVE_NAMES,
    DseConfig,
    DseReport,
    dse_jobs,
    merge_dse_cells,
)
from repro.dse.space import SpaceConfig
from repro.engine import journal
from repro.engine.jobs import BatchJob
from repro.engine.runner import BatchEngine, EngineConfig
from repro.synthesis.tabu import TabuSettings


@dataclass(frozen=True)
class ParetoSweepConfig:
    """Sweep configuration: workload specs sharing one space."""

    workloads: tuple[Mapping[str, object], ...] = (
        {"processes": 8, "nodes": 2, "seed": 1},
    )
    space: SpaceConfig = field(default_factory=SpaceConfig)
    epsilons: tuple[float, float, float] = DEFAULT_EPSILONS
    chunks: int = 4
    seed: int = 0
    settings: TabuSettings = field(
        default_factory=lambda: DEFAULT_SETTINGS)
    max_contexts: int = 200_000

    @classmethod
    def quick(cls) -> "ParetoSweepConfig":
        """Small sweep for CI (the docs-job artifact)."""
        return cls(
            workloads=({"processes": 8, "nodes": 2, "seed": 1},),
            space=SpaceConfig(
                strategies=("MXR", "MR", "SFX"),
                k_values=(1,),
                checkpoint_counts=(0, 1),
                transparency_samples=2,
            ),
        )

    @classmethod
    def paper(cls) -> "ParetoSweepConfig":
        """The full sweep: three workload scales, full space."""
        return cls(
            workloads=(
                {"processes": 8, "nodes": 2, "seed": 1},
                {"processes": 10, "nodes": 2, "seed": 2},
                {"processes": 12, "nodes": 3, "seed": 3},
            ),
            space=SpaceConfig(
                k_values=(1, 2),
                transparency_samples=4,
            ),
        )

    def dse_configs(self) -> list[DseConfig]:
        """One explorer config per workload, sharing every other knob."""
        return [
            DseConfig(
                workload=dict(workload),
                space=self.space,
                epsilons=self.epsilons,
                chunks=self.chunks,
                seed=self.seed,
                settings=self.settings,
                max_contexts=self.max_contexts,
            )
            for workload in self.workloads
        ]


def pareto_jobs(config: ParetoSweepConfig) -> list[BatchJob]:
    """All (workload, chunk) jobs of the sweep, in workload order."""
    jobs: list[BatchJob] = []
    for dse_config in config.dse_configs():
        jobs.extend(dse_jobs(dse_config))
    return jobs


def run_pareto_sweep(config: ParetoSweepConfig, *,
                     engine_config: EngineConfig | None = None,
                     ) -> list[DseReport]:
    """Run the sweep; one merged report per workload, in order."""
    batch = BatchEngine(engine_config).run(pareto_jobs(config))
    reports: list[DseReport] = []
    offset = 0
    for dse_config in config.dse_configs():
        outcomes = batch.outcomes[offset:offset + config.chunks]
        offset += config.chunks
        reports.append(merge_dse_cells(
            dse_config,
            [outcome.result for outcome in outcomes],
            executed=sum(1 for o in outcomes if not o.from_checkpoint),
            resumed=sum(1 for o in outcomes if o.from_checkpoint)))
    return reports


# -- exports -------------------------------------------------------------


def sweep_to_jsonable(reports: Sequence[DseReport]) -> dict:
    """Canonical JSON payload: one entry per workload."""
    return {
        "objectives": list(OBJECTIVE_NAMES),
        "workloads": [report.to_jsonable() for report in reports],
    }


def write_sweep_json(reports: Sequence[DseReport],
                     path: str | Path) -> None:
    """Write the canonical JSON sweep report (atomic replace)."""
    text = json.dumps(sweep_to_jsonable(reports), indent=2,
                      sort_keys=True)
    journal.write_atomic_text(path, text + "\n")


def write_sweep_csv(reports: Sequence[DseReport],
                    path: str | Path) -> None:
    """Write one CSV row per (workload, frontier point)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["workload", "index", "id", "group",
                     *OBJECTIVE_NAMES, "transparency_degree",
                     "table_memory_bytes"])
    for report in reports:
        for point in report.frontier:
            writer.writerow([
                report.config.label,
                point.index,
                point.candidate["id"],
                point.group,
                *point.objectives,
                point.extras.get("transparency_degree"),
                point.extras.get("table_memory_bytes"),
            ])
    journal.write_atomic_text(path, buffer.getvalue())
