"""The unified evaluation core: one tiered cache per problem.

:class:`Evaluator` is the single facade every consumer of candidate
evaluation goes through — the tabu engine, the policy-refinement
sweep, the global checkpoint-count descent, the Pareto explorer and
the fault-injection campaigns. It is bound to one
:class:`~repro.eval.problem.ScheduleProblem` and stacks three caches,
cheapest to most expensive:

1. **estimates** — the slack-sharing schedule-length estimate, keyed
   by solution fingerprint; cached entries are full
   :class:`~repro.schedule.estimation.EstimatorState` objects, so a
   cached parent can seed *incremental* re-evaluation of its one-move
   neighbors (:meth:`Evaluator.estimate_move`);
2. **schedules** — the exact conditional schedule tables
   (:func:`~repro.schedule.conditional.synthesize_schedule`), keyed by
   solution + transparency;
3. **designs** — the derived design metrics bundle
   (:class:`DesignEvaluation`) on top of an exact schedule.

Caching never changes results: every tier memoizes a pure function of
its key, and the incremental estimate path is bit-identical to the
full recompute ``EstimatorState.compute``. The parity tests in
``tests/test_eval.py`` and ``benchmarks/bench_incremental_eval.py``
enforce this by substituting the full recompute for
``EstimatorState.reevaluate``.

:class:`EvaluatorPool` hands out one :class:`Evaluator` per problem
fingerprint — the object a sweep cell shares across the NFT baseline
(``k = 0``) and all strategies (``k > 0``) of one workload.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Iterable, Mapping

from repro.eval.diskcache import DiskCache, cache_dir_default
from repro.eval.problem import Fingerprint, ScheduleProblem
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.model.transparency import Transparency
from repro.policies.types import PolicyAssignment
from repro.schedule.conditional import (
    DEFAULT_MAX_CONTEXTS,
    synthesize_schedule,
)
from repro.schedule.estimation import (
    EstimatorState,
    FtEstimate,
    moved_fingerprint,
    solution_fingerprint,
)
from repro.schedule.metrics import (
    FtMemoryOverhead,
    ScheduleMetrics,
    ft_memory_overhead,
    schedule_metrics,
    transparency_degree,
)
from repro.schedule.mapping import CopyMapping
from repro.schedule.table import ScheduleSet

#: Bound on retained estimator states (LRU beyond this).
#: Entries carry the full replay trace (a few KB each at paper
#: scale), not just an estimate, so the bound is sized to the working
#: set of the largest paper-profile sweep cell rather than the old
#: estimate-only cache's 100k.
DEFAULT_MAX_ENTRIES = 50_000

#: Exact schedules and design bundles are orders of magnitude larger
#: than estimates; their tiers get a correspondingly smaller bound.
#: Both bounds are read when an :class:`Evaluator` is constructed.
DEFAULT_MAX_SCHEDULES = 512


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one cache (or one cache tier)."""

    hits: int
    misses: int
    entries: int

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def merged(self, other: "CacheStats") -> "CacheStats":
        """Counter-wise sum (for aggregating tiers or sweeps)."""
        return CacheStats(hits=self.hits + other.hits,
                          misses=self.misses + other.misses,
                          entries=self.entries + other.entries)


_EMPTY_STATS = CacheStats(hits=0, misses=0, entries=0)


@dataclass(frozen=True)
class EvaluatorStats:
    """Per-tier cache statistics of one evaluator (or one pool)."""

    estimates: CacheStats
    schedules: CacheStats
    designs: CacheStats

    @classmethod
    def merged(cls, parts: Iterable["EvaluatorStats"],
               ) -> "EvaluatorStats":
        """Counter-wise sum over evaluators."""
        estimates = schedules = designs = _EMPTY_STATS
        for part in parts:
            estimates = estimates.merged(part.estimates)
            schedules = schedules.merged(part.schedules)
            designs = designs.merged(part.designs)
        return cls(estimates=estimates, schedules=schedules,
                   designs=designs)


@dataclass(frozen=True)
class DesignEvaluation:
    """Tier-3 bundle: one design evaluated exactly, with metrics."""

    schedule: ScheduleSet
    metrics: ScheduleMetrics
    memory: FtMemoryOverhead
    transparency_degree: float

    @property
    def worst_case_length(self) -> float:
        """Certified worst case over all fault scenarios."""
        return self.schedule.worst_case_length

    @property
    def fault_free_length(self) -> float:
        """Length of the no-fault trace."""
        return self.schedule.fault_free_length

    @property
    def meets_deadline(self) -> bool:
        """True when the certified worst case fits the deadline."""
        return bool(self.schedule.meets_deadline)


class _LruTier:
    """One bounded LRU cache tier with hit/miss counters."""

    __slots__ = ("_entries", "_max_entries", "hits", "misses")

    def __init__(self, max_entries: int) -> None:
        self._entries: OrderedDict = OrderedDict()
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def get(self, key):
        value = self._entries.get(key)
        if value is not None:
            self.hits += 1
            self._entries.move_to_end(key)
        else:
            self.misses += 1
        return value

    def put(self, key, value) -> None:
        self._entries[key] = value
        if len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def stats(self) -> CacheStats:
        return CacheStats(hits=self.hits, misses=self.misses,
                          entries=len(self._entries))

    def __len__(self) -> int:
        return len(self._entries)


def _transparency_key(transparency: Transparency | None) -> tuple:
    if transparency is None:
        return ()
    return (tuple(sorted(transparency.frozen_processes)),
            tuple(sorted(transparency.frozen_messages)))


class Evaluator:
    """Tiered, incremental candidate evaluation for one problem.

    All methods are pure lookups/computations over the bound
    :class:`ScheduleProblem`; repeated keys return the *same* result
    objects (identity reuse is what keeps cached searches
    bit-identical to uncached ones).
    """

    def __init__(self, problem: ScheduleProblem, *,
                 disk: DiskCache | None = None) -> None:
        self._problem = problem
        self._estimates = _LruTier(DEFAULT_MAX_ENTRIES)
        self._schedules = _LruTier(DEFAULT_MAX_SCHEDULES)
        self._designs = _LruTier(DEFAULT_MAX_SCHEDULES)
        self._disk = disk
        self._disk_problem = (disk.problem_key(problem.fingerprint)
                              if disk is not None else None)
        #: ``(parent state, its fingerprint)`` of the last
        #: :meth:`estimate_move` call.
        self._move_parent: tuple[EstimatorState, tuple] | None = None

    # The disk tier sits strictly *behind* the in-memory tiers: a
    # probe happens only after a memory miss was counted, and a hit
    # stores exactly what the compute path would have produced — so
    # enabling it changes no result and no in-memory counter.

    def _disk_get(self, tier: str, key):
        if self._disk is None:
            return None
        return self._disk.get(self._disk_problem, tier, key)

    def _disk_put(self, tier: str, key, value) -> None:
        if self._disk is not None:
            self._disk.put(self._disk_problem, tier, key, value)

    @property
    def problem(self) -> ScheduleProblem:
        """The bound problem context."""
        return self._problem

    # -- tier 1: slack-sharing estimates --------------------------------------

    def estimate_state(self, policies: PolicyAssignment,
                       mapping: CopyMapping, *,
                       bus_contention: bool = True,
                       slack_sharing: str = "max") -> EstimatorState:
        """Cached full evaluation of one solution."""
        key = (bus_contention, slack_sharing,
               solution_fingerprint(policies, mapping))
        state = self._estimates.get(key)
        if state is None:
            state = self._disk_get("estimates", key)
            if state is None:
                state = EstimatorState.compute(
                    self._problem.app, self._problem.arch, mapping,
                    policies, self._problem.fault_model,
                    priorities=self._problem.priorities,
                    bus_contention=bus_contention,
                    slack_sharing=slack_sharing)
                self._disk_put("estimates", key, state)
            self._estimates.put(key, state)
        return state

    def estimate(self, policies: PolicyAssignment,
                 mapping: CopyMapping, *,
                 bus_contention: bool = True,
                 slack_sharing: str = "max") -> FtEstimate:
        """Cached drop-in for :func:`~repro.schedule.estimation.
        estimate_ft_schedule` on this problem."""
        return self.estimate_state(
            policies, mapping, bus_contention=bus_contention,
            slack_sharing=slack_sharing).estimate

    def estimate_move(self, parent: EstimatorState,
                      policies: PolicyAssignment,
                      mapping: CopyMapping,
                      changed: str) -> EstimatorState:
        """Evaluate a one-move neighbor of an evaluated solution.

        ``changed`` names the single process the move touched. Cache
        hit or not, the returned state is bit-identical to a full
        evaluation of the new solution; on a miss the incremental path
        replays the parent's trace prefix.

        The cache key is derived from the parent's: its fingerprint
        with only ``changed``'s part rebuilt (:func:`~repro.schedule.
        estimation.moved_fingerprint`), equal in value to the full
        fingerprint of the new solution. Every caller evaluates many
        neighbours of one parent in a row, so the parent's fingerprint
        is kept for the last parent seen (matched by identity).
        """
        memo = self._move_parent
        if memo is None or memo[0] is not parent:
            memo = self._move_parent = (
                parent,
                solution_fingerprint(parent.policies, parent.mapping))
        key = (parent.bus_contention, parent.slack_sharing,
               moved_fingerprint(memo[1], policies, mapping, changed))
        state = self._estimates.get(key)
        if state is None:
            state = self._disk_get("estimates", key)
            if state is None:
                state = parent.reevaluate(policies, mapping, changed)
                self._disk_put("estimates", key, state)
            self._estimates.put(key, state)
        return state

    # -- tier 2: exact conditional schedules ----------------------------------

    def exact_schedule(self, policies: PolicyAssignment,
                       mapping: CopyMapping,
                       transparency: Transparency | None = None, *,
                       max_contexts: int = DEFAULT_MAX_CONTEXTS,
                       ) -> ScheduleSet:
        """Cached exact conditional schedule tables of one design.

        Failures (context explosion, divergence) propagate and are
        never cached, so a retry with a larger budget recomputes.
        """
        key = (solution_fingerprint(policies, mapping),
               _transparency_key(transparency), max_contexts)
        schedule = self._schedules.get(key)
        if schedule is None:
            schedule = self._disk_get("schedules", key)
            if schedule is None:
                schedule = synthesize_schedule(
                    self._problem.app, self._problem.arch, mapping,
                    policies, self._problem.fault_model, transparency,
                    priorities=self._problem.priorities,
                    max_contexts=max_contexts)
                self._disk_put("schedules", key, schedule)
            self._schedules.put(key, schedule)
        return schedule

    # -- tier 3: design metrics -----------------------------------------------

    def evaluate_design(self, policies: PolicyAssignment,
                        mapping: CopyMapping,
                        transparency: Transparency | None = None, *,
                        max_contexts: int = DEFAULT_MAX_CONTEXTS,
                        ) -> DesignEvaluation:
        """Cached exact evaluation plus derived design metrics."""
        key = (solution_fingerprint(policies, mapping),
               _transparency_key(transparency), max_contexts)
        design = self._designs.get(key)
        if design is None:
            # No disk tier here: a disk hit would skip the nested
            # exact_schedule() lookup and its miss counter, making a
            # warm run observably different from a cold one. The
            # expensive part (the conditional tables) is disk-cached
            # one tier down; the derived metrics are cheap.
            schedule = self.exact_schedule(
                policies, mapping, transparency,
                max_contexts=max_contexts)
            app = self._problem.app
            design = DesignEvaluation(
                schedule=schedule,
                metrics=schedule_metrics(schedule),
                memory=ft_memory_overhead(app, policies),
                transparency_degree=transparency_degree(
                    app, transparency if transparency is not None
                    else Transparency.none()),
            )
            self._designs.put(key, design)
        return design

    # -- bookkeeping ----------------------------------------------------------

    def stats(self) -> EvaluatorStats:
        """Snapshot of all tier counters."""
        return EvaluatorStats(estimates=self._estimates.stats(),
                              schedules=self._schedules.stats(),
                              designs=self._designs.stats())

    def __len__(self) -> int:
        return (len(self._estimates) + len(self._schedules)
                + len(self._designs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (f"Evaluator({self._problem!r}, "
                f"estimates {stats.estimates.hits}/"
                f"{stats.estimates.lookups}, "
                f"schedules {stats.schedules.hits}/"
                f"{stats.schedules.lookups})")


class EvaluatorPool:
    """A family of evaluators, one per problem fingerprint.

    The pool is the unit a sweep cell shares: one workload evaluated
    under several fault budgets (the ``k = 0`` NFT baseline plus the
    strategy's ``k``) or several strategies lands on the same handful
    of evaluators. It never binds to a first workload — problems are
    told apart by content, so mixing workloads through one pool is
    safe by construction.

    ``cache_dir`` attaches a persistent :class:`~repro.eval.diskcache.
    DiskCache` shared by all evaluators, so sweeps warm-start across
    runs. The default comes from the ``REPRO_EVAL_CACHE_DIR``
    environment variable (read at construction, so worker processes
    inherit it); pass ``cache_dir=None`` to force it off.
    """

    #: Sentinel: "use the environment-configured default".
    _ENV_DEFAULT = object()

    def __init__(self, *, cache_dir: object = _ENV_DEFAULT) -> None:
        if cache_dir is EvaluatorPool._ENV_DEFAULT:
            cache_dir = cache_dir_default()
        self._disk = (DiskCache(cache_dir)  # type: ignore[arg-type]
                      if cache_dir is not None else None)
        self._evaluators: dict[Fingerprint, Evaluator] = {}

    @property
    def disk_cache(self) -> DiskCache | None:
        """The attached persistent cache, when enabled."""
        return self._disk

    def evaluator_for(self, app: Application, arch: Architecture,
                      fault_model: FaultModel, *,
                      priorities: Mapping[str, float] | None = None,
                      ) -> Evaluator:
        """The pool's evaluator for one problem (created on demand)."""
        problem = ScheduleProblem.for_workload(
            app, arch, fault_model, priorities=priorities)
        evaluator = self._evaluators.get(problem.fingerprint)
        if evaluator is None:
            evaluator = Evaluator(problem, disk=self._disk)
            self._evaluators[problem.fingerprint] = evaluator
        return evaluator

    @property
    def evaluators(self) -> tuple[Evaluator, ...]:
        """All evaluators handed out so far."""
        return tuple(self._evaluators.values())

    def stats(self) -> EvaluatorStats:
        """Counter-wise sum over all evaluators."""
        return EvaluatorStats.merged(
            e.stats() for e in self._evaluators.values())

    def __len__(self) -> int:
        return sum(len(e) for e in self._evaluators.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EvaluatorPool({len(self._evaluators)} evaluator(s), "
                f"{len(self)} entries)")
