"""Monte Carlo fault-injection campaigns over synthesized schedules.

A *campaign* takes one workload, synthesizes a fault-tolerant design
for it (strategy + tabu budget, exactly as the experiments do), builds
the exact conditional schedule tables, and then stress-tests those
tables under a sampled set of concrete fault plans — turning the
per-scenario checker of :mod:`repro.runtime.simulator` into an
empirical validation pipeline in the spirit of the transparent-recovery
validation line of Kandasamy et al. (see
:mod:`repro.schedule.estimation`).

Execution model
---------------

The plan set is split into ``chunks`` stride slices
(:func:`repro.campaigns.sampling.chunk_slice`); each chunk is one pure
:class:`~repro.engine.jobs.BatchJob` fanned out through the PR 1
:class:`~repro.engine.runner.BatchEngine` — so campaigns inherit the
engine's process-pool parallelism, resumable JSONL checkpoints and
deterministic reports for free. Every chunk re-derives the same
synthesis and the same plan list from the campaign seed (workers share
nothing), simulates its slice, and returns streaming
:class:`~repro.campaigns.stats.CampaignStats`; the parent folds chunk
stats in job-submission order, which makes serial and parallel
campaign reports byte-identical. A certified campaign is still one
engine run: each chunk also sweeps one contiguous window of every
fault scenario of the design it built, and the parent folds those
certificates the way :mod:`repro.verify` folds its chunks.

Campaign and verify chunks both derive a :class:`Design` with
:func:`build_design`, and both merged reports extend
:class:`DesignReport`, so a certificate judges the very design the
sampled plans stressed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path
from collections.abc import Iterable, Mapping, Sequence

from repro.campaigns.sampling import (
    DEFAULT_CERTIFY_MAX_SCENARIOS,
    SAMPLERS,
    chunk_slice,
    sample_campaign_plans,
)
from repro.campaigns.stats import (
    HIST_BIN_PCT,
    CampaignStats,
    estimate_bound,
)
from repro.engine import journal
from repro.engine.grid import grid_jobs
from repro.engine.jobs import BatchJob
from repro.engine.runner import (
    BatchEngine,
    EngineConfig,
    ProgressCallback,
)
from repro.des.core import DesSimulator
from repro.errors import ToleranceViolationError
from repro.eval.core import EvaluatorPool
from repro.ftcpg.scenarios import DesFaultPlan, FaultPlan, count_fault_plans
from repro.kernels.batch import BatchedSimulator
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.model.transparency import Transparency
from repro.runtime.faults import extend_fault_plans
from repro.runtime.simulator import simulate  # noqa: F401 (perfbench patch)
from repro.schedule.estimation import FtEstimate
from repro.schedule.table import ScheduleSet
from repro.synthesis.strategies import StrategyResult, synthesize
from repro.synthesis.tabu import TabuSettings
from repro.utils.rng import derive_seed
from repro.workloads.generator import GeneratorConfig, generate_workload
from repro.workloads.presets import PRESET_WORKLOADS, SIMPLE_PRESETS

#: Import-path runner reference resolved by engine workers.
CHUNK_RUNNER = "repro.campaigns.runner:run_campaign_chunk"


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: a workload, a design flow, and a sampling plan.

    ``workload`` is a JSON-able spec: ``{"preset": <name>}`` for one
    of :data:`PRESET_WORKLOADS`, or generator knobs
    ``{"processes": .., "nodes": .., "seed": ..}``. Keeping the spec
    declarative (instead of passing model objects) is what lets chunk
    jobs rebuild the instance inside worker processes and lets
    checkpoint files stay meaningful across runs.
    """

    workload: Mapping[str, object] = field(
        default_factory=lambda: {"processes": 8, "nodes": 2, "seed": 1})
    k: int = 2
    strategy: str = "MXR"
    sampler: str = "uniform"
    samples: int = 200
    chunks: int = 4
    seed: int = 0
    settings: TabuSettings = field(
        default_factory=lambda: TabuSettings(
            iterations=8, neighborhood=8, bus_contention=False))
    max_contexts: int = 200_000
    #: Certified mode: every chunk additionally sweeps its window of
    #: all fault scenarios of the design it sampled — the windows
    #: ``repro verify`` with the same seed and chunk count sweeps —
    #: and the folded certificate lands in the report.
    certify: bool = False
    certify_max_scenarios: int = DEFAULT_CERTIFY_MAX_SCENARIOS
    #: DES-only fault axes (docs/des.md): every sampled faulty plan is
    #: extended with this many intermittent fault windows …
    intermittent: int = 0
    #: … this many corrupted TDMA slot occurrences …
    slot_faults: int = 0
    #: … and per-process release jitter up to this many time units.
    #: Extended plans run through the event-driven simulator; the
    #: fault-free anchor plan stays pristine (oracle-checkable).
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.sampler not in SAMPLERS:
            raise ValueError(
                f"unknown sampler {self.sampler!r}, expected one of "
                f"{SAMPLERS}")
        if self.chunks < 1:
            raise ValueError(f"chunks must be >= 1, got {self.chunks}")
        if self.samples < 0:
            raise ValueError(
                f"samples must be >= 0, got {self.samples}")
        if self.certify_max_scenarios < 1:
            raise ValueError(
                f"certify_max_scenarios must be >= 1, got "
                f"{self.certify_max_scenarios}")
        if self.intermittent < 0 or self.slot_faults < 0 \
                or not 0 <= self.jitter < math.inf:
            raise ValueError(
                "DES axes must be finite and >= 0, got intermittent="
                f"{self.intermittent} slot_faults={self.slot_faults} "
                f"jitter={self.jitter}")

    @property
    def des_axes(self) -> dict:
        """The DES-only axis knobs as a JSON-able mapping."""
        return {
            "intermittent": self.intermittent,
            "jitter": self.jitter,
            "slot_faults": self.slot_faults,
        }

    @property
    def uses_des_axes(self) -> bool:
        """True when any DES-only axis is switched on."""
        return (self.intermittent > 0 or self.slot_faults > 0
                or self.jitter > 0)

    @property
    def label(self) -> str:
        """Stable id component naming the workload."""
        return workload_label(self.workload)


def workload_label(spec: Mapping[str, object]) -> str:
    """Stable id component naming a workload spec.

    The generator fallbacks mirror :func:`load_campaign_workload`'s
    defaults, so the label names the instance actually run.
    """
    preset = spec.get("preset")
    if preset is not None:
        return str(preset)
    return (f"gen{spec.get('processes', 8)}p{spec.get('nodes', 2)}n"
            f"s{spec.get('seed', 1)}")


def check_chunks_agree(cells: Sequence[Mapping[str, object]],
                       keys: Iterable[str], command: str) -> None:
    """Raise :class:`RuntimeError` unless every chunk payload carries
    the first chunk's value under each of ``keys`` — scalars all
    chunks derive from the same config, so a mismatch means a chunk
    runner broke purity."""
    first = cells[0]
    for cell in cells[1:]:
        for key in keys:
            if cell[key] != first[key]:
                raise RuntimeError(
                    f"{command} chunks disagree on {key!r}: "
                    f"{cell[key]!r} != {first[key]!r} — a chunk "
                    "runner is not a pure function of the config")


def load_campaign_workload(spec: Mapping[str, object],
                           ) -> tuple[Application, Architecture]:
    """Rebuild the campaign's workload from its declarative spec."""
    unknown = set(spec) - {"preset", "processes", "nodes", "seed"}
    if unknown:
        raise ValueError(
            f"unknown workload spec key(s) {sorted(unknown)}; expected "
            "'preset' or generator knobs 'processes'/'nodes'/'seed'")
    preset = spec.get("preset")
    if preset is not None:
        if preset not in SIMPLE_PRESETS:
            raise ValueError(
                f"unknown campaign preset {preset!r}, expected one of "
                f"{PRESET_WORKLOADS}")
        return SIMPLE_PRESETS[preset]()
    return generate_workload(GeneratorConfig(
        processes=int(spec.get("processes", 8)),
        nodes=int(spec.get("nodes", 2)),
        seed=int(spec.get("seed", 1)),
    ))


def synthesize_campaign_design(app, arch, k: int, strategy: str,
                               settings: TabuSettings, seed: int, *,
                               pool: EvaluatorPool):
    """The design a campaign (or verification) seed produces.

    The tabu step of :func:`build_design` — tabu seed via
    ``derive_seed(seed, "campaign-tabu", settings.seed)`` — so a
    certified campaign provably verifies the very design its sampled
    plans stressed: equal ``(workload, k, strategy, settings, seed)``
    yields the identical synthesis on both sides.
    """
    fault_model = FaultModel(k=k)
    settings = replace(settings, seed=derive_seed(
        seed, "campaign-tabu", settings.seed))
    return synthesize(app, arch, fault_model, strategy,
                      settings=settings, cache=pool)


def campaign_jobs(config: CampaignConfig) -> list[BatchJob]:
    """One engine job per plan chunk.

    Only certifying runs put ``certify_max_scenarios`` in the params,
    so their chunks never resume from a journal without certificates.
    """
    certify = ({"certify_max_scenarios": config.certify_max_scenarios}
               if config.certify else {})
    return grid_jobs(
        CHUNK_RUNNER,
        {"chunk": tuple(range(config.chunks))},
        prefix=f"campaign/{config.label}/k={config.k}"
               f"/{config.strategy}/{config.sampler}",
        common={
            "workload": dict(config.workload),
            "k": config.k,
            "strategy": config.strategy,
            "sampler": config.sampler,
            "samples": config.samples,
            "chunks": config.chunks,
            "seed": config.seed,
            "settings": asdict(config.settings),
            "max_contexts": config.max_contexts,
            "intermittent": config.intermittent,
            "slot_faults": config.slot_faults,
            "jitter": config.jitter,
            **certify,
        },
    )


#: The design scalars every chunk payload carries
#: (:meth:`Design.header`); all chunks of one run derive them from one
#: config, so a mismatch means a chunk runner broke purity.
HEADER_KEYS = ("estimate", "certified_estimate", "estimate_bound",
               "exact_worst_case", "fault_free_length", "nft_length",
               "deadline", "processes", "nodes")


@dataclass(frozen=True)
class Design:
    """One fully evaluated design: what a sweep chunk derives.

    Everything campaign and verify chunks derive from the seed before
    they start simulating: the instance, the synthesized design, the
    exact tables (built against ``transparency``, the workload's
    contract, None for campaigns) and the certified estimate bound.
    """

    app: Application
    arch: Architecture
    fault_model: FaultModel
    result: StrategyResult
    schedule: ScheduleSet
    certified: FtEstimate
    bound: float
    pool: EvaluatorPool
    transparency: Transparency | None = None

    @property
    def executor_args(self) -> tuple:
        """The ``(app, arch, mapping, policies, fault_model, schedule)``
        every executor takes."""
        return (self.app, self.arch, self.result.mapping,
                self.result.policies, self.fault_model, self.schedule)

    @cached_property
    def kernel(self) -> BatchedSimulator:
        """The batched scenario kernel of this design's tables,
        compiled on first use and shared by every replay of the
        design (sampled plans and certificate windows alike)."""
        return BatchedSimulator(*self.executor_args)

    def header(self) -> dict:
        """The :data:`HEADER_KEYS` scalars of every chunk payload."""
        estimate = self.result.estimate
        return {
            "estimate": estimate.schedule_length,
            "certified_estimate": self.certified.schedule_length,
            "estimate_bound": self.bound,
            "exact_worst_case": self.schedule.worst_case_length,
            "fault_free_length": estimate.ff_length,
            "nft_length": self.result.nft_length,
            "deadline": self.app.deadline,
            "processes": len(self.app.process_names),
            "nodes": len(self.arch.node_names),
        }

    def extend_plans(self, plans: Sequence[FaultPlan], *,
                     intermittent: int, slot_faults: int, jitter: float,
                     seed: int) -> list[FaultPlan | DesFaultPlan]:
        """:func:`~repro.runtime.faults.extend_fault_plans` over this
        design's nodes, processes, table horizon and bus."""
        return extend_fault_plans(
            plans, node_names=self.arch.node_names,
            process_names=self.app.process_names,
            horizon=self.schedule.worst_case_length,
            round_length=self.arch.bus.round_length,
            slots_per_round=len(self.arch.bus.slot_order),
            intermittent=intermittent, slot_faults=slot_faults,
            jitter=jitter, seed=seed)


def scenario_limit_error(total: int, max_scenarios: int, *, flag: str,
                         ) -> ToleranceViolationError | None:
    """The refusal of ``total`` fault scenarios beyond
    ``max_scenarios``, naming ``flag``, the refusing command's option
    that raises the limit; None within the limit."""
    if total <= max_scenarios:
        return None
    return ToleranceViolationError(
        f"{total} fault scenarios exceed the verification limit "
        f"{max_scenarios}; raise {flag} or verify a smaller instance")


def build_design(app: Application, arch: Architecture,
                 params: Mapping[str, object], *,
                 transparency: Transparency | None = None,
                 max_scenarios: int | None = None) -> Design:
    """Derive a chunk's design from its params (pure).

    The one derivation of campaign and verify chunks: tabu search
    (:func:`synthesize_campaign_design`), the exact tables and the
    certified estimate bound. With ``max_scenarios`` (verify chunks),
    instances beyond that many fault scenarios are refused with
    :class:`~repro.errors.ToleranceViolationError` before any table
    is built.
    """
    k = int(params["k"])
    fault_model = FaultModel(k=k)
    pool = EvaluatorPool()
    result = synthesize_campaign_design(
        app, arch, k, str(params["strategy"]),
        TabuSettings(**params["settings"]), int(params["seed"]),
        pool=pool)
    if max_scenarios is not None:
        # Refuse intractable instances *before* paying for the exact
        # conditional tables (the expensive, explosion-prone step):
        # the scenario count needs nothing but the synthesized
        # policies.
        error = scenario_limit_error(
            count_fault_plans(app, result.policies, k), max_scenarios,
            flag="--max-scenarios")
        if error is not None:
            raise error
    evaluator = pool.evaluator_for(app, arch, fault_model)
    schedule = evaluator.exact_schedule(
        result.policies, result.mapping, transparency,
        max_contexts=int(params["max_contexts"]))
    # The soundness seam: simulations are held against the *budgeted*
    # slack-sharing estimate (sound for the replication hybrids the
    # search may pick — the default "max" rule is not; see
    # :func:`repro.schedule.estimation.estimate_ft_schedule`) plus the
    # condition-broadcast allowance the estimation model skips. The
    # estimator shares the exact scheduler's earliest-start-first
    # replica serialization, so the bound needs no exact-tables floor;
    # the tables built above serve simulation and the report's
    # exact_worst_case gap column only.
    certified = evaluator.estimate(
        result.policies, result.mapping, slack_sharing="budgeted")
    bound = estimate_bound(app, arch, certified, k)
    return Design(app=app, arch=arch, fault_model=fault_model,
                  result=result, schedule=schedule, certified=certified,
                  bound=bound, pool=pool, transparency=transparency)


def run_campaign_chunk(params: Mapping[str, object]) -> dict:
    """One chunk: synthesize, build exact tables, simulate a slice.

    Pure function of its params (the engine's worker contract). The
    synthesis seed and the sampling seed are both derived from the
    campaign seed — *not* from the chunk index — so every chunk
    reproduces the identical design and plan list and only its stride
    slice differs.

    With ``certify_max_scenarios`` in the params the payload also
    carries a ``certificate``: the chunk's window of every fault
    scenario of the same design, swept on the same tables — the window
    verify chunk ``chunk`` sweeps — or ``{"skipped": reason}`` beyond
    the limit. The cache counters are read before, so certifying does
    not move them.
    """
    design = build_design(*load_campaign_workload(params["workload"]),
                          params)
    app, result = design.app, design.result

    plans = sample_campaign_plans(
        app, result.policies, design.fault_model.k,
        sampler=str(params["sampler"]),
        samples=int(params["samples"]),
        seed=derive_seed(int(params["seed"]), "campaign-plans"))
    # DES-only axes (docs/des.md): every chunk extends the *full* plan
    # list with the same derived seed before slicing, so the extended
    # scenarios — like the base plans — are a pure function of the
    # campaign seed and byte-identical across chunks.
    intermittent = int(params.get("intermittent", 0))
    slot_faults = int(params.get("slot_faults", 0))
    jitter = float(params.get("jitter", 0.0))
    plans = design.extend_plans(
        plans, intermittent=intermittent, slot_faults=slot_faults,
        jitter=jitter,
        seed=derive_seed(int(params["seed"]), "campaign-des"))
    slice_plans = chunk_slice(plans, int(params["chunk"]),
                              int(params["chunks"]))

    if intermittent > 0 or slot_faults > 0 or jitter > 0:
        # The DES executes every plan: table-expressible ones through
        # the replay oracle, extended ones forward.
        run_plan = DesSimulator(*design.executor_args).simulate
    else:
        # Table-expressible plans only: the batched kernel replays
        # them bit-identically to simulate(), falling back to the
        # oracle per plan for anything it cannot prove.
        run_plan = design.kernel.simulate_plan
    stats = CampaignStats()
    for plan in slice_plans:
        outcome = run_plan(plan)
        stats.observe(outcome, bound=design.bound,
                      ff_length=result.estimate.ff_length,
                      deadline=app.deadline,
                      expected_processes=len(app.process_names))
    cache_stats = design.pool.stats()
    payload = {
        "chunk": int(params["chunk"]),
        "plans_total": len(plans),
        "stats": stats.to_jsonable(),
        "cache_hits": cache_stats.estimates.hits,
        "cache_misses": cache_stats.estimates.misses,
        "cache_entries": cache_stats.estimates.entries,
        **design.header(),
    }
    max_scenarios = params.get("certify_max_scenarios")
    if max_scenarios is not None:
        # The limit is checked before design.kernel is touched, so a
        # skipped certificate compiles nothing.
        error = scenario_limit_error(
            count_fault_plans(app, result.policies, design.fault_model.k),
            int(max_scenarios), flag="--certify-max-scenarios")
        if error is not None:
            payload["certificate"] = {"skipped": str(error)}
        else:
            # Imported lazily: repro.verify.runner imports this module
            # for the shared design derivation.
            from repro.verify.core import ScenarioSweep
            from repro.verify.runner import sweep_window
            sweep = ScenarioSweep(*design.executor_args,
                                  kernel=design.kernel)
            payload["certificate"] = sweep_window(
                sweep, design.transparency, int(params["chunk"]),
                int(params["chunks"]))
    return payload


@dataclass(kw_only=True)
class DesignReport:
    """What the merged campaign and verify reports share: the design
    header of their chunks (:meth:`Design.header`), the summed cache
    counters and the engine's chunk counts."""

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

    @staticmethod
    def merged_fields(cells: Sequence[Mapping[str, object]],
                      command: str, total_key: str, *, executed: int,
                      resumed: int) -> dict:
        """The :class:`DesignReport` fields of one run's chunk payloads.

        Raises :class:`RuntimeError` unless every chunk agrees on the
        design header and on ``total_key``, the command's own total.
        """
        check_chunks_agree(cells, (total_key, *HEADER_KEYS), command)
        first = cells[0]
        header = {key: float(first[key]) for key in HEADER_KEYS}
        # The instance sizes are counts; every other scalar a length.
        header.update(processes=int(first["processes"]),
                      nodes=int(first["nodes"]))
        return {
            **header,
            "cache_hits": sum(int(c.get("cache_hits", 0)) for c in cells),
            "cache_misses": sum(int(c.get("cache_misses", 0))
                                for c in cells),
            "executed_chunks": executed,
            "resumed_chunks": resumed,
        }

    def to_jsonable(self) -> dict:
        """The report's ``instance`` and ``schedule`` blocks."""
        return {
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
        }

    def to_json(self) -> str:
        """Canonical JSON text of the report."""
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)

    def write_json(self, path: str | Path) -> None:
        """Write the canonical JSON report (atomic replace)."""
        journal.write_atomic_text(path, self.to_json() + "\n")

    def estimate_line(self) -> str:
        """The summary line setting the design's lengths side by side."""
        return (f"estimate {self.estimate:.1f} (certified "
                f"{self.certified_estimate:.1f}, bound "
                f"{self.estimate_bound:.1f}, exact worst case "
                f"{self.exact_worst_case:.1f})")


@dataclass
class CampaignReport(DesignReport):
    """Merged outcome of one campaign (all chunks)."""

    config: CampaignConfig
    stats: CampaignStats
    plans_total: int
    #: The exhaustive certificate of certified-mode campaigns
    #: (:class:`repro.verify.VerifyReport`), None otherwise.
    verification: object | None = None
    #: Why a requested certificate was skipped (scenario count beyond
    #: ``certify_max_scenarios``), None when it ran or was not asked.
    certify_skipped: str | None = None

    @property
    def ok(self) -> bool:
        """True when no plan violated an invariant, missed a deadline,
        or finished beyond the estimate bound — and, in certified
        mode, the exhaustive verification passed as well (a *skipped*
        certificate leaves the sampled verdict untouched, like a
        frontier design beyond the DSE scenario budget)."""
        certified = (self.verification is None
                     or self.verification.ok)
        return (self.stats.violations == 0
                and self.stats.deadline_misses == 0
                and self.stats.exceeded == 0
                and certified)

    # -- deterministic export -------------------------------------------------

    def to_jsonable(self) -> dict:
        """Timing-free report payload (byte-stable across runs)."""
        stats = self.stats.to_jsonable()
        stats["mean_makespan"] = self.stats.mean_makespan
        stats["mean_slack_utilization"] = \
            self.stats.mean_slack_utilization
        stats["deadline_miss_rate"] = self.stats.deadline_miss_rate
        payload = {
            **super().to_jsonable(),
            "campaign": {
                "workload": self.config.label,
                "k": self.config.k,
                "strategy": self.config.strategy,
                "sampler": self.config.sampler,
                "samples": self.config.samples,
                "chunks": self.config.chunks,
                "seed": self.config.seed,
            },
            "des_axes": (self.config.des_axes
                         if self.config.uses_des_axes else None),
            "plans_total": self.plans_total,
            "gap_hist_bin_pct": HIST_BIN_PCT,
            "stats": stats,
        }
        if self.verification is not None:
            payload["verification"] = self.verification.to_jsonable()
        elif self.certify_skipped is not None:
            payload["verification"] = {"skipped": self.certify_skipped}
        return payload

    def summary_lines(self) -> list[str]:
        """Human-readable aggregate summary (CLI output)."""
        stats = self.stats
        lines = [
            f"workload {self.config.label}: {self.processes} processes "
            f"on {self.nodes} nodes, k = {self.config.k}, "
            f"strategy {self.config.strategy}",
            f"{stats.plans} plans simulated "
            f"({self.config.sampler} sampler, {self.config.chunks} "
            f"chunk(s); {self.executed_chunks} executed, "
            f"{self.resumed_chunks} resumed; per-chunk synthesis "
            f"estimation cache: {self.cache_hits} hits / "
            f"{self.cache_misses} misses)",
            f"finish: worst {stats.worst_makespan:.1f}, "
            f"mean {stats.mean_makespan:.1f}, "
            f"fault-free {_fmt_opt(stats.fault_free_makespan)} "
            f"simulated ({self.fault_free_length:.1f} estimated), "
            f"deadline {self.deadline:.1f}",
            self.estimate_line(),
            f"slack utilization: mean "
            f"{stats.mean_slack_utilization * 100:.1f} %, "
            f"max {stats.util_max * 100:.1f} %",
            f"violations {stats.violations}, deadline misses "
            f"{stats.deadline_misses}, plans beyond the estimate "
            f"bound {stats.exceeded} (min gap "
            f"{0.0 if stats.min_gap is None else stats.min_gap:.1f})",
        ]
        if self.config.uses_des_axes:
            lines.append(
                f"DES axes per faulty plan: "
                f"{self.config.intermittent} intermittent window(s), "
                f"{self.config.slot_faults} corrupted slot(s), "
                f"jitter up to {self.config.jitter:g} "
                "(event-driven simulator; beyond the k-fault "
                "hypothesis)")
        if self.verification is not None:
            verify = self.verification
            verdict = ("CERTIFIED" if verify.ok
                       else "NOT certified")
            lines.append(
                f"certificate: {verify.stats.scenarios} scenarios "
                f"verified exhaustively, worst "
                f"{verify.stats.worst_makespan:.1f}, "
                f"{verify.stats.failures} failure(s) -> {verdict} "
                f"for k = {self.config.k}")
        elif self.certify_skipped is not None:
            lines.append(f"certificate: SKIPPED — "
                         f"{self.certify_skipped}")
        return lines


def _fmt_opt(value: float | None) -> str:
    """One-decimal float, or a dash when no plan anchored the value."""
    return "-" if value is None else f"{value:.1f}"


def run_campaign(config: CampaignConfig, *,
                 engine_config: EngineConfig | None = None,
                 progress: ProgressCallback | None = None,
                 ) -> CampaignReport:
    """Run (or resume) one campaign through the batch engine.

    In certified mode (``config.certify``) each chunk also certifies
    its window of the design it sampled; the windows fold in job order
    into the :class:`~repro.verify.runner.VerifyReport` stored in
    :attr:`CampaignReport.verification`.
    """
    engine = BatchEngine(engine_config or EngineConfig())
    batch = engine.run(campaign_jobs(config), progress=progress)
    cells = batch.results()
    header = DesignReport.merged_fields(
        cells, "campaign", "plans_total", executed=batch.executed,
        resumed=batch.resumed)

    verification = None
    certify_skipped = None
    if config.certify:
        # Imported lazily, as in run_campaign_chunk.
        from repro.verify.runner import VerifyConfig, merge_verify_cells
        reasons = {cell["certificate"].get("skipped") for cell in cells}
        if len(reasons) > 1:
            raise RuntimeError(
                "campaign chunks disagree on skipping the certificate "
                "— a chunk runner is not a pure function of the seed")
        certify_skipped = reasons.pop()
        if certify_skipped is None:
            verification = merge_verify_cells(
                VerifyConfig(
                    workload=config.workload,
                    k=config.k,
                    strategy=config.strategy,
                    chunks=config.chunks,
                    seed=config.seed,
                    settings=config.settings,
                    max_contexts=config.max_contexts,
                    max_scenarios=config.certify_max_scenarios,
                ),
                # Each window's sweep over its chunk's design scalars.
                [{**cell, **cell["certificate"]} for cell in cells],
                executed=batch.executed, resumed=batch.resumed)

    merged = CampaignStats()
    for cell in cells:
        merged.merge(CampaignStats.from_jsonable(cell["stats"]))
    return CampaignReport(
        config=config,
        stats=merged,
        plans_total=int(cells[0]["plans_total"]),
        verification=verification,
        certify_skipped=certify_skipped,
        **header,
    )
