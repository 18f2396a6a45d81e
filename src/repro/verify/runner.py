"""Sharded verification through the batch engine (``repro verify``).

A *verification* takes one workload, synthesizes a fault-tolerant
design for it and builds the exact conditional schedule tables (one
:func:`repro.campaigns.runner.build_design`, the derivation a
campaign chunk with the same seed runs), and then **proves** the
tolerance claim: every fault scenario within the budget ``k`` is
simulated, every run-time invariant checked, and the transparency
contract audited — the end-to-end certificate the paper's §5.2
schedule tables promise.

Execution model — the same discipline as :mod:`repro.campaigns`: the
scenario order is split into ``chunks`` **contiguous** windows
(:func:`repro.verify.core.chunk_bounds`; contiguous, not strided,
because a contiguous window lets the enumeration skip every subtree
outside it).
Each chunk is one pure :class:`~repro.engine.jobs.BatchJob` through
the :class:`~repro.engine.runner.BatchEngine` — process-pool
parallelism, resumable JSONL checkpoints, deterministic fold order.
Every chunk re-derives the same design from the seed, sweeps its
window, and returns streaming
:class:`~repro.verify.stats.VerificationStats`; the parent folds
chunk stats in job-submission order, which makes serial and parallel
verification reports byte-identical — and, because the sweep is
bit-identical to one-shot simulation, identical to a fold of
``simulate()`` over every plan. Chunk 0 also runs the DES-only
scenarios (``des_scenarios``) on the design and transparency-aware
tables it built.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from collections.abc import Mapping

from repro.campaigns.runner import (
    Design,
    DesignReport,
    build_design,
    load_campaign_workload,
    workload_label,
)
from repro.des.core import DesSimulator
from repro.engine.grid import grid_jobs
from repro.engine.jobs import BatchJob
from repro.engine.runner import (
    BatchEngine,
    EngineConfig,
    ProgressCallback,
)
from repro.errors import ToleranceViolationError
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.transparency import Transparency
from repro.runtime.faults import sample_fault_plans
from repro.synthesis.tabu import TabuSettings
from repro.utils.rng import derive_seed
from repro.verify.core import ScenarioSweep, chunk_bounds
from repro.verify.stats import DEFAULT_MAX_SCENARIOS, VerificationStats
from repro.workloads.presets import brake_by_wire, fig5_example

#: Import-path runner reference resolved by engine workers.
CHUNK_RUNNER = "repro.verify.runner:run_verify_chunk"


@dataclass(frozen=True)
class VerifyConfig:
    """One verification: a workload, a design flow, and a shard grid.

    ``workload`` is the campaigns' declarative spec plus the two
    transparency-carrying presets: ``{"preset": "fig5"}`` /
    ``{"preset": "bbw"}`` (whose preset transparency is then enforced
    as part of the certificate), any
    :data:`~repro.workloads.presets.SIMPLE_PRESETS` name, or generator
    knobs ``{"processes": .., "nodes": .., "seed": ..}``.
    """

    workload: Mapping[str, object] = field(
        default_factory=lambda: {"processes": 5, "nodes": 2, "seed": 1})
    k: int = 2
    strategy: str = "MXR"
    chunks: int = 4
    seed: int = 0
    settings: TabuSettings = field(
        default_factory=lambda: TabuSettings(
            iterations=8, neighborhood=8, bus_contention=False))
    max_contexts: int = 200_000
    max_scenarios: int = DEFAULT_MAX_SCENARIOS
    #: DES-only scenario sampling (docs/des.md): this many random
    #: fault plans are extended with the axes below and executed
    #: one-shot through the event-driven simulator by chunk 0 — they
    #: are beyond the table-expressible enumeration, so the scenario
    #: windows cannot carry them.
    des_scenarios: int = 0
    intermittent: int = 1
    slot_faults: int = 1
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.chunks < 1:
            raise ValueError(f"chunks must be >= 1, got {self.chunks}")
        if self.max_scenarios < 1:
            raise ValueError(
                f"max_scenarios must be >= 1, got {self.max_scenarios}")
        if self.des_scenarios < 0 or self.intermittent < 0 \
                or self.slot_faults < 0 or not 0 <= self.jitter < math.inf:
            raise ValueError(
                "DES knobs must be finite and >= 0, got des_scenarios="
                f"{self.des_scenarios} intermittent="
                f"{self.intermittent} slot_faults={self.slot_faults} "
                f"jitter={self.jitter}")

    @property
    def label(self) -> str:
        """Stable id component naming the workload."""
        return workload_label(self.workload)


def load_verify_workload(spec: Mapping[str, object],
                         ) -> tuple[Application, Architecture,
                                    Transparency | None]:
    """Rebuild a verification workload from its declarative spec.

    Superset of :func:`~repro.campaigns.runner.load_campaign_workload`:
    the ``fig5`` and ``bbw`` presets additionally carry the paper's /
    case study's transparency requirements, which the verifier then
    audits scenario by scenario.
    """
    preset = spec.get("preset")
    if preset == "fig5":
        app, arch, __, transparency, ___ = fig5_example()
        return app, arch, transparency
    if preset == "bbw":
        app, arch, transparency = brake_by_wire()
        return app, arch, transparency
    app, arch = load_campaign_workload(spec)
    return app, arch, None


def verify_jobs(config: VerifyConfig) -> list[BatchJob]:
    """One engine job per scenario window.

    Only runs with DES scenarios put the DES knobs in the params, so
    their chunks never resume from a journal without the DES section.
    """
    des = ({"des_scenarios": config.des_scenarios,
            "intermittent": config.intermittent,
            "slot_faults": config.slot_faults,
            "jitter": config.jitter}
           if config.des_scenarios > 0 else {})
    return grid_jobs(
        CHUNK_RUNNER,
        {"chunk": tuple(range(config.chunks))},
        prefix=f"verify/{config.label}/k={config.k}/{config.strategy}",
        common={
            "workload": dict(config.workload),
            "k": config.k,
            "strategy": config.strategy,
            "chunks": config.chunks,
            "seed": config.seed,
            "settings": asdict(config.settings),
            "max_contexts": config.max_contexts,
            "max_scenarios": config.max_scenarios,
            **des,
        },
    )


def sweep_window(sweep: ScenarioSweep, transparency: Transparency | None,
                 chunk: int, chunks: int) -> dict:
    """Sweep window ``chunk`` of ``chunks`` of a design's scenarios;
    the window part of a verify chunk's payload."""
    start, stop = chunk_bounds(sweep.total, chunk, chunks)
    stats = VerificationStats()
    for outcome in sweep.results(start, stop):
        stats.observe(outcome, transparency)
    return {"scenarios_total": sweep.total, "start": start,
            "stop": stop, "stats": stats.to_jsonable()}


def run_verify_chunk(params: Mapping[str, object]) -> dict:
    """One chunk: synthesize, build exact tables, sweep a window.

    Pure function of its params (the engine's worker contract): the
    design and the scenario order derive from the seed alone, so every
    chunk reproduces the identical instance and only its contiguous
    window differs. With ``des_scenarios`` in the params, chunk 0's
    payload also carries :func:`run_des_scenarios`' section for the
    same tables.
    """
    app, arch, transparency = load_verify_workload(params["workload"])
    design = build_design(app, arch, params, transparency=transparency,
                          max_scenarios=int(params["max_scenarios"]))
    window = sweep_window(ScenarioSweep(*design.executor_args),
                          design.transparency, int(params["chunk"]),
                          int(params["chunks"]))
    cache_stats = design.pool.stats()
    payload = {
        "chunk": int(params["chunk"]),
        **window,
        "cache_hits": cache_stats.estimates.hits,
        "cache_misses": cache_stats.estimates.misses,
        **design.header(),
    }
    if "des_scenarios" in params and int(params["chunk"]) == 0:
        payload["des"] = run_des_scenarios(design, params)
    return payload


@dataclass
class VerifyReport(DesignReport):
    """Merged outcome of one verification (all scenario windows)."""

    config: VerifyConfig
    stats: VerificationStats
    scenarios_total: int
    #: One-shot DES scenario section (:func:`run_des_scenarios`, run
    #: by chunk 0), None when ``des_scenarios`` was 0.
    des: dict | None = None

    @property
    def ok(self) -> bool:
        """True when every scenario was tolerated and the transparency
        contract held — the design is *certified* for ``k`` faults.

        DES-only scenarios do not gate the verdict: they inject beyond
        the paper's fault hypothesis (intermittent re-hits, bus
        corruption, jitter), so their violations are reported findings
        in :attr:`des`, not certificate failures — the certificate
        claims exactly the ``k``-transient-fault guarantee."""
        return self.stats.ok

    @property
    def frozen_violations(self) -> list[str]:
        """Transparency-contract violations (report messages)."""
        return self.stats.frozen_violations()

    def raise_on_failure(self) -> None:
        """Raise :class:`ToleranceViolationError` when not certified."""
        if self.ok:
            return
        details = [err for record in self.stats.failure_records
                   for err in record["errors"]]
        details.extend(self.frozen_violations)
        shown = "; ".join(details[:5])
        raise ToleranceViolationError(
            f"{self.stats.failures} of {self.stats.scenarios} fault "
            f"scenarios failed, "
            f"{len(self.frozen_violations)} transparency violations: "
            f"{shown}")

    # -- deterministic export -------------------------------------------------

    def to_jsonable(self) -> dict:
        """Timing-free report payload (byte-stable across runs)."""
        stats = self.stats.to_jsonable()
        stats["mean_makespan"] = self.stats.mean_makespan
        stats["frozen_violations"] = self.frozen_violations
        return {
            **super().to_jsonable(),
            "verify": {
                "workload": self.config.label,
                "k": self.config.k,
                "strategy": self.config.strategy,
                "chunks": self.config.chunks,
                "seed": self.config.seed,
            },
            "scenarios_total": self.scenarios_total,
            "certified": self.ok,
            "stats": stats,
            "des": self.des,
        }

    def summary_lines(self) -> list[str]:
        """Human-readable aggregate summary (CLI output)."""
        stats = self.stats
        hist = ", ".join(
            f"{count}f: {bin_.worst_makespan:.1f}"
            for count, bin_ in sorted(stats.fault_hist.items())
            if bin_.finished)
        lines = [
            f"workload {self.config.label}: {self.processes} processes "
            f"on {self.nodes} nodes, k = {self.config.k}, "
            f"strategy {self.config.strategy}",
            f"{stats.scenarios} of {self.scenarios_total} fault "
            f"scenarios simulated exhaustively "
            f"({self.config.chunks} chunk(s); {self.executed_chunks} "
            f"executed, {self.resumed_chunks} resumed)",
            f"finish: worst {stats.worst_makespan:.1f}, "
            f"mean {stats.mean_makespan:.1f}, fault-free "
            f"{stats.fault_free_makespan or 0.0:.1f}, "
            f"deadline {self.deadline:.1f}",
            f"worst makespan per fault count: {hist or '-'}",
            self.estimate_line(),
            f"failures {stats.failures}, transparency violations "
            f"{len(self.frozen_violations)}"
            f" -> {'CERTIFIED' if self.ok else 'NOT certified'} "
            f"for k = {self.config.k}",
        ]
        if self.des is not None:
            des = self.des
            lines.append(
                f"DES (beyond hypothesis): {des['scenarios']} "
                f"scenario(s) one-shot through the event engine, "
                f"{des['failures']} with violations, worst "
                f"{des['worst_makespan']:.1f} "
                f"({des['axes']['intermittent']} window(s), "
                f"{des['axes']['slot_faults']} corrupted slot(s), "
                f"jitter up to {des['axes']['jitter']:g} per scenario)")
        return lines


def merge_verify_cells(config: VerifyConfig, cells: list[dict],
                       executed: int = 0, resumed: int = 0,
                       ) -> VerifyReport:
    """Fold chunk results into one report (exposed for campaigns);
    the DES section, if any, is chunk 0's."""
    header = DesignReport.merged_fields(
        cells, "verify", "scenarios_total", executed=executed,
        resumed=resumed)
    merged = VerificationStats()
    for cell in cells:
        merged.merge(VerificationStats.from_jsonable(cell["stats"]))
    return VerifyReport(
        config=config,
        stats=merged,
        scenarios_total=int(cells[0]["scenarios_total"]),
        des=cells[0].get("des"),
        **header,
    )


def run_des_scenarios(design: Design, params: Mapping[str, object]) -> dict:
    """Execute a verify chunk's DES-only scenarios one-shot.

    The scenario windows cover the table-expressible enumeration;
    intermittent windows, corrupted slots and jitter live outside it,
    so ``params["des_scenarios"]`` scenarios are sampled
    (seed-derived, deterministic), extended with the configured axes,
    and run straight through :class:`repro.des.core.DesSimulator` on
    the chunk's design and tables. Returns the JSON-able section
    stored in :attr:`VerifyReport.des`.
    """
    seed = int(params["seed"])
    axes = {"intermittent": params["intermittent"],
            "jitter": params["jitter"],
            "slot_faults": params["slot_faults"]}
    base_plans = sample_fault_plans(
        design.app, design.result.policies, design.fault_model.k,
        int(params["des_scenarios"]),
        seed=derive_seed(seed, "verify-des"),
        include_fault_free=False)
    plans = design.extend_plans(
        base_plans, seed=derive_seed(seed, "verify-des-axes"), **axes)
    simulator = DesSimulator(*design.executor_args)
    failures = 0
    worst = 0.0
    unfinished = 0
    samples: list[str] = []
    for plan in plans:
        outcome = simulator.simulate(plan)
        if outcome.errors:
            failures += 1
            if len(samples) < 5:
                samples.append(outcome.errors[0])
        if outcome.makespan == float("inf"):
            unfinished += 1
        else:
            worst = max(worst, outcome.makespan)
    return {
        "axes": axes,
        "error_samples": samples,
        "failures": failures,
        "scenarios": len(plans),
        "unfinished": unfinished,
        "worst_makespan": worst,
    }


def run_verification(config: VerifyConfig, *,
                     engine_config: EngineConfig | None = None,
                     progress: ProgressCallback | None = None,
                     ) -> VerifyReport:
    """Run (or resume) one verification through the batch engine.

    When ``config.des_scenarios > 0``, chunk 0 also runs a one-shot
    DES pass over the sampled beyond-hypothesis scenarios; its section
    lands in :attr:`VerifyReport.des` (reported, not
    certificate-gating).
    """
    engine = BatchEngine(engine_config or EngineConfig())
    batch = engine.run(verify_jobs(config), progress=progress)
    return merge_verify_cells(config, batch.results(),
                              executed=batch.executed,
                              resumed=batch.resumed)
