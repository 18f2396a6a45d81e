"""Sharded verification through the batch engine (``repro verify``).

A *verification* takes one workload, synthesizes a fault-tolerant
design for it (exactly the derivation :func:`repro.campaigns.runner.
synthesize_campaign_design` gives a campaign with the same seed),
builds the exact conditional schedule tables, and then **proves** the
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

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from collections.abc import Mapping

from repro.campaigns.runner import (
    check_chunks_agree,
    load_campaign_workload,
    synthesize_campaign_design,
    workload_label,
)
from repro.campaigns.stats import estimate_bound
from repro.des.core import DesSimulator
from repro.engine import journal
from repro.engine.grid import grid_jobs
from repro.engine.jobs import BatchJob
from repro.engine.runner import (
    BatchEngine,
    EngineConfig,
    ProgressCallback,
)
from repro.errors import ToleranceViolationError
from repro.eval.core import EvaluatorPool
from repro.ftcpg.scenarios import count_fault_plans
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.model.transparency import Transparency
from repro.runtime.faults import extend_fault_plans, sample_fault_plans
from repro.schedule.table import ScheduleSet
from repro.synthesis.strategies import StrategyResult
from repro.synthesis.tabu import TabuSettings
from repro.utils.rng import derive_seed
from repro.verify.core import ScenarioSweep, chunk_bounds
from repro.verify.stats import VerificationStats
from repro.workloads.presets import brake_by_wire, fig5_example

#: Import-path runner reference resolved by engine workers.
CHUNK_RUNNER = "repro.verify.runner:run_verify_chunk"

#: Default ceiling on exhaustively simulated scenarios. Far above the
#: legacy serial verifier's 100k — sharding and the batched kernel are
#: what make Fig. 7/8-scale scenario sets tractable — but still a
#: guard against accidentally exponential instances.
DEFAULT_MAX_SCENARIOS = 2_000_000


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


def scenario_limit_error(total: int, max_scenarios: int,
                         ) -> ToleranceViolationError | None:
    """The refusal of ``total`` fault scenarios beyond
    ``max_scenarios``, or None within the limit."""
    if total <= max_scenarios:
        return None
    return ToleranceViolationError(
        f"{total} fault scenarios exceed the verification limit "
        f"{max_scenarios}; raise --max-scenarios or verify a "
        "smaller instance")


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
    k = int(params["k"])
    fault_model = FaultModel(k=k)
    pool = EvaluatorPool()
    result = synthesize_campaign_design(
        app, arch, k, str(params["strategy"]),
        TabuSettings(**params["settings"]), int(params["seed"]),
        pool=pool)
    # Refuse intractable instances *before* paying for the exact
    # conditional tables (the expensive, explosion-prone step): the
    # scenario count needs nothing but the synthesized policies.
    total = count_fault_plans(app, result.policies, k)
    error = scenario_limit_error(total, int(params["max_scenarios"]))
    if error is not None:
        raise error
    evaluator = pool.evaluator_for(app, arch, fault_model)
    schedule = evaluator.exact_schedule(
        result.policies, result.mapping, transparency,
        max_contexts=int(params["max_contexts"]))
    certified = evaluator.estimate(
        result.policies, result.mapping, slack_sharing="budgeted")
    # Estimate + allowance alone is sound across the policy zoo (the
    # estimator shares the exact scheduler's replica serialization
    # order); exact_worst_case stays in the report as a tightness
    # reference, not a floor.
    bound = estimate_bound(app, arch, certified, k)
    sweep = ScenarioSweep(app, arch, result.mapping, result.policies,
                          fault_model, schedule)
    window = sweep_window(sweep, transparency, int(params["chunk"]),
                          int(params["chunks"]))

    cache_stats = pool.stats()
    payload = {
        "chunk": int(params["chunk"]),
        **window,
        "cache_hits": cache_stats.estimates.hits,
        "cache_misses": cache_stats.estimates.misses,
        "estimate": result.estimate.schedule_length,
        "certified_estimate": certified.schedule_length,
        "estimate_bound": bound,
        "exact_worst_case": schedule.worst_case_length,
        "fault_free_length": result.estimate.ff_length,
        "nft_length": result.nft_length,
        "deadline": app.deadline,
        "processes": len(app.process_names),
        "nodes": len(arch.node_names),
    }
    if "des_scenarios" in params and int(params["chunk"]) == 0:
        payload["des"] = run_des_scenarios(
            app, arch, result, fault_model, schedule, params)
    return payload


#: Scalars every chunk of one verification must agree on (they all
#: derive from the same seed); a mismatch means a runner broke purity.
_CONSISTENT_KEYS = ("scenarios_total", "estimate",
                    "certified_estimate", "estimate_bound",
                    "exact_worst_case", "fault_free_length",
                    "nft_length", "deadline", "processes", "nodes")


@dataclass
class VerifyReport:
    """Merged outcome of one verification (all scenario windows)."""

    config: VerifyConfig
    stats: VerificationStats
    scenarios_total: int
    estimate: float
    certified_estimate: float
    estimate_bound: float
    exact_worst_case: float
    fault_free_length: float
    nft_length: float
    deadline: float
    processes: int
    nodes: int
    cache_hits: int = 0
    cache_misses: int = 0
    executed_chunks: int = 0
    resumed_chunks: int = 0
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
            "verify": {
                "workload": self.config.label,
                "k": self.config.k,
                "strategy": self.config.strategy,
                "chunks": self.config.chunks,
                "seed": self.config.seed,
            },
            "instance": {
                "processes": self.processes,
                "nodes": self.nodes,
                "deadline": self.deadline,
            },
            "schedule": {
                "estimate": self.estimate,
                "certified_estimate": self.certified_estimate,
                "estimate_bound": self.estimate_bound,
                "exact_worst_case": self.exact_worst_case,
                "fault_free_length": self.fault_free_length,
                "nft_length": self.nft_length,
            },
            "scenarios_total": self.scenarios_total,
            "certified": self.ok,
            "stats": stats,
            "des": self.des,
        }

    def to_json(self) -> str:
        """Canonical JSON text of the report."""
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)

    def write_json(self, path: str | Path) -> None:
        """Write the canonical JSON report (atomic replace)."""
        journal.write_atomic_text(path, self.to_json() + "\n")

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
            f"estimate {self.estimate:.1f} (certified "
            f"{self.certified_estimate:.1f}, bound "
            f"{self.estimate_bound:.1f}, exact worst case "
            f"{self.exact_worst_case:.1f})",
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
    check_chunks_agree(cells, _CONSISTENT_KEYS, "verify")
    first = cells[0]
    merged = VerificationStats()
    for cell in cells:
        merged.merge(VerificationStats.from_jsonable(cell["stats"]))
    return VerifyReport(
        config=config,
        stats=merged,
        scenarios_total=int(first["scenarios_total"]),
        estimate=float(first["estimate"]),
        certified_estimate=float(first["certified_estimate"]),
        estimate_bound=float(first["estimate_bound"]),
        exact_worst_case=float(first["exact_worst_case"]),
        fault_free_length=float(first["fault_free_length"]),
        nft_length=float(first["nft_length"]),
        deadline=float(first["deadline"]),
        processes=int(first["processes"]),
        nodes=int(first["nodes"]),
        cache_hits=sum(int(c.get("cache_hits", 0)) for c in cells),
        cache_misses=sum(int(c.get("cache_misses", 0))
                         for c in cells),
        executed_chunks=executed,
        resumed_chunks=resumed,
        des=first.get("des"),
    )


def run_des_scenarios(app: Application, arch: Architecture,
                      result: StrategyResult, fault_model: FaultModel,
                      schedule: ScheduleSet,
                      params: Mapping[str, object]) -> dict:
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
        app, result.policies, fault_model.k,
        int(params["des_scenarios"]),
        seed=derive_seed(seed, "verify-des"),
        include_fault_free=False)
    plans = extend_fault_plans(
        base_plans,
        node_names=arch.node_names,
        process_names=app.process_names,
        horizon=schedule.worst_case_length,
        round_length=arch.bus.round_length,
        slots_per_round=len(arch.bus.slot_order),
        seed=derive_seed(seed, "verify-des-axes"),
        **axes)
    simulator = DesSimulator(app, arch, result.mapping, result.policies,
                             fault_model, schedule)
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
