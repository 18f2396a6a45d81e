"""The Pareto design-space explorer (``repro dse``).

Turns the one-design-at-a-time synthesis flow into a multi-objective
search: enumerate the candidate space (:mod:`repro.dse.space`),
evaluate every candidate **exactly** — strategy synthesis for its
(strategy, k) pair, the checkpoint-count transform applied through the
same :class:`~repro.synthesis.moves.PolicyMove` the tabu search uses,
then the exact conditional scheduler under the candidate's
transparency — and keep the epsilon-Pareto frontier over

* worst-case schedule length (``ScheduleSet.worst_case_length`` — the
  tables' own certified worst case, not the estimate),
* transparency degree (stored minimized as ``opacity = 1 - degree``),
* checkpoint/replication memory overhead
  (:func:`repro.schedule.metrics.ft_memory_overhead`).

Execution model — same discipline as :mod:`repro.campaigns`: the
candidate list is split into ``chunks`` stride slices; each chunk is
one pure :class:`~repro.engine.jobs.BatchJob` through the
:class:`~repro.engine.runner.BatchEngine` (process-pool parallelism,
resumable JSONL checkpoints). A chunk re-derives the workload and the
full candidate list from the config, synthesizes each (strategy, k)
design once behind one shared :class:`~repro.eval.EvaluatorPool`
(whose deeper tiers also dedupe exact schedules and design metrics
across candidates that collapse to the same design), and streams
its slice into a local raw-Pareto archive. With ``verify_frontier``
the chunk then certifies every archived design against the tables
its pool already holds (:func:`certify_frontier`). The parent merges
chunk archives with :meth:`ParetoArchive.merged` — a set function, so
the frontier is byte-identical across worker counts *and* chunk
layouts — and attaches the certificates to the frontier points.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from collections.abc import Iterable, Mapping, Sequence

from repro.campaigns.runner import (
    check_chunks_agree,
    load_campaign_workload,
    workload_label,
)
from repro.campaigns.sampling import chunk_slice
from repro.dse.archive import (
    DEFAULT_EPSILONS,
    DEFAULT_VERIFY_MAX_SCENARIOS,
    DesignPoint,
    ParetoArchive,
)
from repro.dse.space import Candidate, SpaceConfig, enumerate_candidates
from repro.engine import journal
from repro.engine.grid import grid_jobs
from repro.engine.jobs import BatchJob
from repro.engine.runner import (
    BatchEngine,
    EngineConfig,
    ProgressCallback,
)
from repro.errors import ReproError
from repro.eval import Evaluator, EvaluatorPool
from repro.ftcpg.scenarios import count_fault_plans
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.policies.types import PolicyAssignment
from repro.schedule.mapping import CopyMapping
from repro.synthesis.moves import PolicyMove
from repro.synthesis.strategies import StrategyResult, synthesize
from repro.synthesis.tabu import TabuSettings
from repro.utils.rng import derive_seed
from repro.utils.textgrid import TextGrid
from repro.verify import ScenarioSweep, VerificationStats

#: Import-path runner reference resolved by engine workers.
CHUNK_RUNNER = "repro.dse.explorer:run_dse_chunk"

#: Default tabu budget: small on purpose — every candidate is
#: re-evaluated exactly, the search only seeds the designs.
DEFAULT_SETTINGS = TabuSettings(iterations=8, neighborhood=8,
                                bus_contention=False)

#: Objective names, in vector order (all minimized).
OBJECTIVE_NAMES = ("length", "opacity", "memory_bytes")


@dataclass(frozen=True)
class DseConfig:
    """One exploration: a workload, a space, and an archive grid.

    ``workload`` uses the same declarative spec as campaigns
    (:func:`repro.campaigns.runner.load_campaign_workload`):
    ``{"preset": <name>}`` or generator knobs
    ``{"processes": .., "nodes": .., "seed": ..}``.
    """

    workload: Mapping[str, object] = field(
        default_factory=lambda: {"processes": 8, "nodes": 2, "seed": 1})
    space: SpaceConfig = field(default_factory=SpaceConfig)
    epsilons: tuple[float, float, float] = DEFAULT_EPSILONS
    chunks: int = 4
    seed: int = 0
    settings: TabuSettings = field(
        default_factory=lambda: DEFAULT_SETTINGS)
    max_contexts: int = 200_000
    #: Certify the merged frontier: every frontier design is
    #: exhaustively verified (:mod:`repro.verify`) and flagged
    #: ``certified`` true/false in JSON/CSV — or ``None`` when its
    #: scenario count exceeds ``verify_max_scenarios``.
    verify_frontier: bool = False
    verify_max_scenarios: int = DEFAULT_VERIFY_MAX_SCENARIOS

    def __post_init__(self) -> None:
        if self.chunks < 1:
            raise ValueError(f"chunks must be >= 1, got {self.chunks}")
        if self.verify_max_scenarios < 1:
            raise ValueError(
                f"verify_max_scenarios must be >= 1, got "
                f"{self.verify_max_scenarios}")
        if len(self.epsilons) != len(OBJECTIVE_NAMES):
            raise ValueError(
                f"need {len(OBJECTIVE_NAMES)} epsilons "
                f"{OBJECTIVE_NAMES}, got {self.epsilons}")
        if any(e <= 0 for e in self.epsilons):
            raise ValueError(
                f"epsilons must be positive, got {self.epsilons}")

    @property
    def label(self) -> str:
        """Stable id component naming the workload."""
        return workload_label(self.workload)


def dse_jobs(config: DseConfig) -> list[BatchJob]:
    """One engine job per candidate chunk.

    Only certifying runs put ``verify_max_scenarios`` in the params,
    so their chunks never resume from a journal without certificates.
    """
    common: dict[str, object] = {
        "workload": dict(config.workload),
        "space": config.space.to_jsonable(),
        "epsilons": list(config.epsilons),
        "chunks": config.chunks,
        "seed": config.seed,
        "settings": asdict(config.settings),
        "max_contexts": config.max_contexts,
    }
    if config.verify_frontier:
        common["verify_max_scenarios"] = config.verify_max_scenarios
    return grid_jobs(
        CHUNK_RUNNER,
        {"chunk": tuple(range(config.chunks))},
        prefix=f"dse/{config.label}",
        common=common,
    )


def apply_checkpoint_counts(
    app: Application,
    policies: PolicyAssignment,
    mapping: CopyMapping,
    count: int,
) -> tuple[PolicyAssignment, CopyMapping]:
    """Re-checkpoint every recovering copy at a uniform count.

    ``count == 0`` keeps the design as synthesized. Otherwise each copy
    with recoveries switches to rollback recovery with ``count``
    equidistant checkpoints; replicas without recoveries are untouched
    (a checkpoint without a recovery to use it is dead memory). The
    change is applied through :class:`PolicyMove` — the same value
    object the tabu search walks — so mapping bookkeeping has a single
    implementation.
    """
    if count == 0:
        return policies, mapping
    solution = (policies, mapping)
    for name, policy in policies.items():
        changed = policy
        for copy_index, plan in enumerate(policy.copies):
            if plan.recoveries > 0 and plan.checkpoints != count:
                changed = changed.with_copy(
                    copy_index, plan.with_checkpoints(count))
        if changed is policy:
            continue
        move = PolicyMove(name, changed)
        if move.applies_to(solution):
            solution = move.apply(solution, app)
    return solution


def evaluate_candidate(
    app: Application,
    candidate: Candidate,
    design: StrategyResult,
    *,
    max_contexts: int,
    evaluator: Evaluator,
) -> DesignPoint:
    """Evaluate one candidate exactly and package it as an archive point.

    Raises :class:`~repro.errors.ReproError` subclasses when the exact
    scheduler cannot handle the candidate (context explosion, frozen
    fixpoint divergence); the chunk runner records those as skipped.

    ``evaluator`` (the per-``k`` :class:`~repro.eval.Evaluator` of the
    chunk's pool) caches the exact schedule and metrics bundle, so
    candidates that collapse to the same design — e.g. the synthesized
    checkpoint count re-applied explicitly — are scheduled once.
    """
    policies, mapping = apply_checkpoint_counts(
        app, design.policies, design.mapping, candidate.checkpoints)
    transparency = candidate.transparency.build()
    transparency.validate(app)
    evaluation = evaluator.evaluate_design(
        policies, mapping, transparency, max_contexts=max_contexts)
    schedule = evaluation.schedule
    metrics = evaluation.metrics
    memory = evaluation.memory
    degree = evaluation.transparency_degree
    objectives = (
        float(schedule.worst_case_length),
        round(1.0 - degree, 12),
        float(memory.total_bytes),
    )
    return DesignPoint(
        index=candidate.index,
        candidate=candidate.describe(),
        objectives=objectives,
        group=f"k={candidate.k}",
        extras={
            "transparency_degree": degree,
            "checkpoint_bytes": memory.checkpoint_bytes,
            "replication_bytes": memory.replication_bytes,
            "table_memory_bytes": metrics.total_memory_bytes,
            "scenarios": metrics.scenario_count,
            "distinct_guards": metrics.distinct_guards,
            "fault_free_length": schedule.fault_free_length,
            "estimate": design.estimate.schedule_length,
            "meets_deadline": bool(schedule.meets_deadline),
        },
    )


def run_dse_chunk(params: Mapping[str, object]) -> dict:
    """One chunk: synthesize per (strategy, k), evaluate a slice.

    Pure function of its params (the engine's worker contract): the
    workload, candidate list and tabu seed all derive from the config,
    so every chunk enumerates the identical space and only its stride
    slice differs. Designs are memoized per (strategy, k) behind one
    shared estimation cache; candidates whose exact scheduling fails
    are counted as skipped, never dropped silently.

    Checkpoint-insensitive designs (no recovering copies — e.g. pure
    replication from MR) are identical under every checkpoint count,
    so only the first count of the axis is evaluated; the rest are
    counted as duplicates. This is exactly the set the archive would
    discard as exact duplicates anyway (the first count has the lowest
    index in the row-major enumeration), so the frontier is unchanged
    — the expensive exact scheduling is just not repeated.

    With ``verify_max_scenarios`` in the params the payload also
    carries :func:`certify_frontier`'s rows for the final archive; the
    cache counters are read before, so certifying does not move them.
    """
    app, arch = load_campaign_workload(params["workload"])
    space = SpaceConfig.from_jsonable(params["space"])
    epsilons = tuple(float(e) for e in params["epsilons"])
    base = TabuSettings(**params["settings"])
    settings = replace(base, seed=derive_seed(
        int(params["seed"]), "dse-tabu", base.seed))
    max_contexts = int(params["max_contexts"])

    candidates = enumerate_candidates(app, arch, space)
    slice_candidates = chunk_slice(candidates, int(params["chunk"]),
                                   int(params["chunks"]))

    pool = EvaluatorPool()
    designs: dict[tuple[str, int], StrategyResult] = {}

    def design_for(strategy: str, k: int) -> StrategyResult:
        key = (strategy, k)
        if key not in designs:
            designs[key] = synthesize(
                app, arch, FaultModel(k=k), strategy,
                settings=settings, cache=pool)
        return designs[key]

    def checkpoint_insensitive(design: StrategyResult) -> bool:
        return not any(plan.recoveries > 0
                       for __, policy in design.policies.items()
                       for plan in policy.copies)

    first_count = space.checkpoint_counts[0]
    archive = ParetoArchive(epsilons)
    evaluated = 0
    duplicates = 0
    skipped: list[dict] = []
    for candidate in slice_candidates:
        design = design_for(candidate.strategy, candidate.k)
        if candidate.checkpoints != first_count \
                and checkpoint_insensitive(design):
            duplicates += 1
            continue
        try:
            point = evaluate_candidate(
                app, candidate, design,
                max_contexts=max_contexts,
                evaluator=pool.evaluator_for(
                    app, arch, FaultModel(k=candidate.k)))
        except ReproError as error:
            skipped.append({
                "index": candidate.index,
                "id": candidate.candidate_id,
                "error": f"{type(error).__name__}: {error}",
            })
            continue
        evaluated += 1
        archive.insert(point)

    stats = pool.stats()
    payload = {
        "chunk": int(params["chunk"]),
        "candidates_total": len(candidates),
        "evaluated": evaluated,
        "duplicates": duplicates,
        "skipped": skipped,
        "archive": archive.to_jsonable(),
        "designs_synthesized": len(designs),
        "cache_hits": stats.estimates.hits,
        "cache_misses": stats.estimates.misses,
        "cache_entries": stats.estimates.entries,
        "schedule_cache_hits": stats.schedules.hits,
        "schedule_cache_misses": stats.schedules.misses,
        "processes": len(app.process_names),
        "nodes": len(arch.node_names),
        "deadline": app.deadline,
    }
    max_scenarios = params.get("verify_max_scenarios")
    if max_scenarios is not None:
        payload["certificates"] = certify_frontier(
            app, arch, [candidates[p.index] for p in archive.points()],
            designs, pool, max_contexts=max_contexts,
            max_scenarios=int(max_scenarios))
    return payload


def certify_frontier(
    app: Application,
    arch: Architecture,
    candidates: Iterable[Candidate],
    designs: Mapping[tuple[str, int], StrategyResult],
    pool: EvaluatorPool,
    *,
    max_contexts: int,
    max_scenarios: int,
) -> list[list]:
    """Exhaustively verify evaluated candidates (``--verify-frontier``).

    Runs in the chunk that evaluated ``candidates``, with its
    ``designs`` and the tables its ``pool`` holds (an evicted table is
    rebuilt), sweeping every fault scenario through
    :class:`~repro.verify.core.ScenarioSweep`. Returns one
    ``[index, certified, verified_scenarios]`` row per candidate;
    ``certified`` is None, and no table is looked up, when the
    scenario count exceeds ``max_scenarios``.
    """
    rows: list[list] = []
    for candidate in candidates:
        design = designs[(candidate.strategy, candidate.k)]
        policies, mapping = apply_checkpoint_counts(
            app, design.policies, design.mapping, candidate.checkpoints)
        if count_fault_plans(app, policies, candidate.k) > max_scenarios:
            rows.append([candidate.index, None, 0])
            continue
        fault_model = FaultModel(k=candidate.k)
        transparency = candidate.transparency.build()
        evaluator = pool.evaluator_for(app, arch, fault_model)
        schedule = evaluator.exact_schedule(
            policies, mapping, transparency, max_contexts=max_contexts)
        sweep = ScenarioSweep(app, arch, mapping, policies,
                              fault_model, schedule)
        stats = VerificationStats()
        for outcome in sweep.results():
            stats.observe(outcome, transparency)
        rows.append([candidate.index, stats.ok, stats.scenarios])
    return rows


#: Scalars every chunk of one exploration must agree on; a mismatch
#: means a chunk runner broke purity (same discipline as campaigns).
_CONSISTENT_KEYS = ("candidates_total", "processes", "nodes",
                    "deadline")


@dataclass
class DseReport:
    """Merged outcome of one exploration (all chunks)."""

    config: DseConfig
    archive: ParetoArchive
    candidates_total: int
    evaluated: int
    duplicates: int
    skipped: tuple[dict, ...]
    processes: int
    nodes: int
    deadline: float
    cache_hits: int = 0
    cache_misses: int = 0
    schedule_cache_hits: int = 0
    schedule_cache_misses: int = 0
    executed_chunks: int = 0
    resumed_chunks: int = 0

    @property
    def frontier(self) -> tuple[DesignPoint, ...]:
        """The epsilon-sparsified frontier over all groups."""
        return self.archive.frontier()

    @property
    def cache_hit_rate(self) -> float:
        """Estimation-cache hit rate over all chunks, in percent."""
        lookups = self.cache_hits + self.cache_misses
        return (self.cache_hits / lookups * 100.0) if lookups else 0.0

    # -- deterministic exports -------------------------------------------------

    def to_jsonable(self) -> dict:
        """Timing-free report payload (byte-stable across runs)."""
        return {
            "dse": {
                "workload": self.config.label,
                "space": self.config.space.to_jsonable(),
                "epsilons": list(self.config.epsilons),
                "chunks": self.config.chunks,
                "seed": self.config.seed,
                "verify_frontier": self.config.verify_frontier,
            },
            "instance": {
                "processes": self.processes,
                "nodes": self.nodes,
                "deadline": self.deadline,
            },
            "candidates_total": self.candidates_total,
            "evaluated": self.evaluated,
            "duplicates": self.duplicates,
            "skipped": [dict(s) for s in self.skipped],
            "objectives": list(OBJECTIVE_NAMES),
            "archive": self.archive.to_jsonable(),
            "frontier": [p.to_jsonable() for p in self.frontier],
        }

    def to_json(self) -> str:
        """Canonical JSON text of the report."""
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)

    def write_json(self, path: str | Path) -> None:
        """Write the canonical JSON report (atomic replace)."""
        journal.write_atomic_text(path, self.to_json() + "\n")

    def write_csv(self, path: str | Path) -> None:
        """Write one CSV row per frontier point (atomic replace)."""
        import csv
        import io
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(
            ["index", "id", "group", *OBJECTIVE_NAMES,
             "transparency_degree", "checkpoint_bytes",
             "replication_bytes", "table_memory_bytes",
             "meets_deadline", "certified",
             "verified_scenarios"])
        for point in self.frontier:
            extras = point.extras
            writer.writerow([
                point.index,
                point.candidate["id"],
                point.group,
                *point.objectives,
                extras.get("transparency_degree"),
                extras.get("checkpoint_bytes"),
                extras.get("replication_bytes"),
                extras.get("table_memory_bytes"),
                extras.get("meets_deadline"),
                extras.get("certified"),
                extras.get("verified_scenarios"),
            ])
        journal.write_atomic_text(path, buffer.getvalue())

    def frontier_table(self) -> str:
        """The frontier as an aligned text table (CLI output).

        Deadline-missing designs stay on the frontier (the surface is
        informative either way — "this much transparency cannot be
        had within the deadline" is a result) but are flagged, so the
        table never presents an unschedulable design as a silent
        recommendation.
        """
        grid = TextGrid(["group", "design", "worst case",
                         "transparency %", "FT mem B", "table mem B",
                         "deadline", "cert"])
        for point in self.frontier:
            extras = point.extras
            certified = extras.get("certified")
            grid.add_row([
                point.group,
                point.candidate["id"],
                f"{point.objectives[0]:.1f}",
                f"{extras.get('transparency_degree', 0.0) * 100:.0f}",
                f"{int(point.objectives[2])}",
                f"{extras.get('table_memory_bytes', 0)}",
                "ok" if extras.get("meets_deadline", True) else "MISS",
                ("-" if certified is None
                 else "yes" if certified else "FAIL"),
            ])
        return grid.render()

    def summary_lines(self) -> list[str]:
        """Human-readable aggregate summary (CLI output)."""
        frontier = self.frontier
        misses = sum(1 for p in frontier
                     if not p.extras.get("meets_deadline", True))
        lines = [
            f"workload {self.config.label}: {self.processes} processes "
            f"on {self.nodes} nodes, deadline {self.deadline:.1f}",
            f"{self.candidates_total} candidates "
            f"({self.evaluated} evaluated, {self.duplicates} "
            f"checkpoint-insensitive duplicates, {len(self.skipped)} "
            f"skipped) over strategies "
            f"{'/'.join(self.config.space.strategies)}, "
            f"k in {{{', '.join(str(k) for k in self.config.space.k_values)}}}, "
            f"checkpoints in "
            f"{{{', '.join(str(c) for c in self.config.space.checkpoint_counts)}}}"
            f" ({self.executed_chunks} chunk(s) executed, "
            f"{self.resumed_chunks} resumed)",
            f"archive: {len(self.archive)} non-dominated designs, "
            f"frontier after epsilon sparsification: {len(frontier)}",
            f"estimation cache hit rate {self.cache_hit_rate:.1f} % "
            f"({self.cache_hits} hits / {self.cache_misses} misses); "
            f"exact-schedule cache {self.schedule_cache_hits} hits / "
            f"{self.schedule_cache_misses} misses",
        ]
        if misses:
            lines.append(
                f"WARNING: {misses} frontier design(s) miss the "
                f"deadline (flagged in the table)")
        if self.config.verify_frontier:
            certified = sum(
                1 for p in frontier
                if p.extras.get("certified") is True)
            failed = sum(1 for p in frontier
                         if p.extras.get("certified") is False)
            skipped = sum(1 for p in frontier
                          if p.extras.get("certified") is None)
            lines.append(
                f"frontier certification: {certified} certified, "
                f"{failed} failed, {skipped} beyond the scenario "
                f"budget")
            if failed:
                lines.append(
                    f"WARNING: {failed} frontier design(s) FAILED "
                    f"exhaustive verification")
        return lines


def _attach_certificates(frontier: Sequence[DesignPoint],
                         cells: list[dict]) -> None:
    """Flag each frontier point from its chunk's certificate row.

    The frontier is a subset of the union of chunk archives (see
    :mod:`repro.dse.archive`) and stride slices give every candidate
    to one chunk, so a missing or duplicate row breaks purity.
    """
    rows: dict[int, list] = {}
    for cell in cells:
        for row in cell.get("certificates", ()):
            index = int(row[0])
            if index in rows:
                raise RuntimeError(
                    f"dse chunks both certify candidate {index} — a "
                    "chunk runner is not a pure function of the config")
            rows[index] = row
    for point in frontier:
        row = rows.get(point.index)
        if row is None:
            raise RuntimeError(
                f"no chunk certifies frontier candidate {point.index} "
                "— a chunk runner is not a pure function of the config")
        point.extras["certified"] = row[1]
        point.extras["verified_scenarios"] = row[2]


def merge_dse_cells(config: DseConfig, cells: list[dict],
                    executed: int = 0, resumed: int = 0) -> DseReport:
    """Fold chunk results into one report (exposed for sweeps).

    Verifies the chunks agree on every shared scalar, then merges the
    chunk archives as a set function — the result is independent of
    chunk layout and worker count. With ``config.verify_frontier`` the
    chunks' certificates are attached to the frontier points.
    """
    check_chunks_agree(cells, _CONSISTENT_KEYS, "dse")
    first = cells[0]
    archive = ParetoArchive.merged(
        config.epsilons,
        ([DesignPoint.from_jsonable(p) for p in cell["archive"]["points"]]
         for cell in cells))
    if config.verify_frontier:
        _attach_certificates(archive.frontier(), cells)
    skipped = sorted(
        (s for cell in cells for s in cell["skipped"]),
        key=lambda s: s["index"])
    return DseReport(
        config=config,
        archive=archive,
        candidates_total=int(first["candidates_total"]),
        evaluated=sum(int(c["evaluated"]) for c in cells),
        duplicates=sum(int(c.get("duplicates", 0)) for c in cells),
        skipped=tuple(skipped),
        processes=int(first["processes"]),
        nodes=int(first["nodes"]),
        deadline=float(first["deadline"]),
        cache_hits=sum(int(c["cache_hits"]) for c in cells),
        cache_misses=sum(int(c["cache_misses"]) for c in cells),
        schedule_cache_hits=sum(
            int(c.get("schedule_cache_hits", 0)) for c in cells),
        schedule_cache_misses=sum(
            int(c.get("schedule_cache_misses", 0)) for c in cells),
        executed_chunks=executed,
        resumed_chunks=resumed,
    )


def run_dse(config: DseConfig, *,
            engine_config: EngineConfig | None = None,
            progress: ProgressCallback | None = None) -> DseReport:
    """Run (or resume) one exploration through the batch engine."""
    engine = BatchEngine(engine_config or EngineConfig())
    batch = engine.run(dse_jobs(config), progress=progress)
    return merge_dse_cells(config, batch.results(),
                           executed=batch.executed,
                           resumed=batch.resumed)
