"""Enumeration of concrete fault scenarios.

A *fault plan* assigns to every copy of every process a per-segment
fault count: ``plan[(process, copy)][segment-1] = f`` means the first
``f`` attempts of that segment fail and attempt ``f + 1`` (if the copy
still has recoveries) succeeds. With rollback semantics the ``j``-th
retry of a segment exists only after ``j`` consecutive failures, so
per-segment counts enumerate fault scenarios *exactly* (DESIGN.md §6).

A copy whose total faults exceed its recovery count dies fail-silently
at the fault that exhausts the budget; the enumeration therefore allows
per-copy totals up to ``R_j + 1`` (death) but never more — further
faults could not hit a copy that no longer executes. The system-wide
total is bounded by ``k``.

The number of plans grows combinatorially; the exhaustive tolerance
verifier only uses it for small instances, and :func:`count_fault_plans`
lets callers check the size first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from collections.abc import Iterator, Mapping

from repro.errors import PolicyError, ValidationError
from repro.model.application import Application
from repro.policies.types import PolicyAssignment
from repro.utils.mathutils import flt

CopyKey = tuple[str, int]


@dataclass(frozen=True)
class FaultPlan:
    """One concrete fault scenario.

    ``faults`` maps ``(process, copy)`` to a tuple of per-segment fault
    counts; copies absent from the mapping take no faults.
    """

    faults: Mapping[CopyKey, tuple[int, ...]]

    @property
    def total_faults(self) -> int:
        """Total number of faults injected by this plan."""
        return sum(sum(counts) for counts in self.faults.values())

    def faults_in(self, process: str, copy: int, segment: int) -> int:
        """Faults hitting one segment (1-based) of one copy."""
        counts = self.faults.get((process, copy))
        if counts is None or segment > len(counts):
            return 0
        return counts[segment - 1]

    def copy_faults(self, process: str, copy: int) -> int:
        """Total faults hitting one copy."""
        counts = self.faults.get((process, copy))
        return sum(counts) if counts else 0

    def is_fault_free(self) -> bool:
        """True when no fault is injected."""
        return self.total_faults == 0

    def describe(self) -> str:
        """Human-readable summary, e.g. ``P1:1 P3(2):2``."""
        if self.is_fault_free():
            return "fault-free"
        parts = []
        for (process, copy), counts in sorted(self.faults.items()):
            if sum(counts) == 0:
                continue
            label = process if copy == 0 else f"{process}({copy + 1})"
            if len(counts) > 1:
                detail = ",".join(str(c) for c in counts)
                parts.append(f"{label}:[{detail}]")
            else:
                parts.append(f"{label}:{counts[0]}")
        return " ".join(parts)


@dataclass(frozen=True)
class FaultWindow:
    """An intermittent fault active on one node over ``[t_on, t_off)``.

    While the window is active, *every* execution attempt on ``node``
    whose busy interval overlaps it fails — including re-executions,
    which is exactly what the per-segment counts of a :class:`FaultPlan`
    cannot express (a count makes the ``j+1``-th attempt succeed by
    construction). Only the event-driven simulator
    (:mod:`repro.des`) can execute these.
    """

    node: str
    t_on: float
    t_off: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_on) and math.isfinite(self.t_off)
                and self.t_off > self.t_on):
            raise ValidationError(
                f"fault window must satisfy t_on < t_off, both finite, "
                f"got [{self.t_on}, {self.t_off})")

    def hits(self, start: float, end: float) -> bool:
        """Whether an attempt busy over ``[start, end)`` overlaps the
        active window (eps-tolerant strict overlap)."""
        return flt(start, self.t_off) and flt(self.t_on, end)

    def describe(self) -> str:
        """Human-readable summary, e.g. ``N1@[4,9)``."""
        return f"{self.node}@[{self.t_on:g},{self.t_off:g})"


@dataclass(frozen=True)
class SlotFault:
    """One corrupted TDMA slot occurrence.

    Any frame transmitted in slot ``slot_index`` of round
    ``round_index`` is lost; the sender retransmits it in a later slot
    occurrence it owns, delaying the message arrival — an axis the
    schedule tables assume away (the bus is fault-free in the paper's
    hypothesis) and only the DES can execute.
    """

    round_index: int
    slot_index: int

    def __post_init__(self) -> None:
        if self.round_index < 0 or self.slot_index < 0:
            raise ValidationError(
                f"slot fault indices must be non-negative, got round "
                f"{self.round_index} slot {self.slot_index}")

    def describe(self) -> str:
        """Human-readable summary, e.g. ``r2s0``."""
        return f"r{self.round_index}s{self.slot_index}"


@dataclass(frozen=True)
class DesFaultPlan:
    """A :class:`FaultPlan` extended with DES-only scenario axes.

    ``base`` carries the per-segment transient-fault counts that table
    replay can express; ``windows`` (intermittent faults),
    ``slot_faults`` (corrupted TDMA slots) and ``jitter`` (per-process
    release delays, in schedule time units) are executable only by the
    event-driven simulator. The DES runs a plan with no extensions
    through table replay, reporting against its base plan.
    """

    base: FaultPlan
    windows: tuple[FaultWindow, ...] = ()
    slot_faults: tuple[SlotFault, ...] = ()
    jitter: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for process, delay in self.jitter.items():
            if not math.isfinite(delay):
                raise ValidationError(
                    f"release jitter must be finite, got {process}+"
                    f"{delay}")
            if delay < 0:
                raise ValidationError(
                    f"release jitter must be non-negative, got "
                    f"{process}{delay:+g}")

    @property
    def is_table_expressible(self) -> bool:
        """True when no DES-only axis is used and table replay applies."""
        return (not self.windows and not self.slot_faults
                and not any(self.jitter.values()))

    @property
    def total_faults(self) -> int:
        """Injected faults: base transients + windows + slot faults.

        Release jitter is a timing perturbation, not a fault, and does
        not count.
        """
        return (self.base.total_faults + len(self.windows)
                + len(self.slot_faults))

    def is_fault_free(self) -> bool:
        """True when nothing at all is injected (jitter included)."""
        return self.total_faults == 0 and not any(self.jitter.values())

    def describe(self) -> str:
        """Human-readable summary combining the base plan and axes."""
        parts = []
        if not self.base.is_fault_free():
            parts.append(self.base.describe())
        if self.windows:
            detail = ",".join(w.describe() for w in self.windows)
            parts.append(f"win[{detail}]")
        if self.slot_faults:
            detail = ",".join(s.describe() for s in self.slot_faults)
            parts.append(f"slot[{detail}]")
        jittered = {p: j for p, j in self.jitter.items() if j > 0}
        if jittered:
            detail = ",".join(f"{p}+{j:g}" for p, j in sorted(
                jittered.items()))
            parts.append(f"jitter[{detail}]")
        return " ".join(parts) if parts else "fault-free"


def _copy_distributions(segments: int, max_total: int,
                        ) -> list[tuple[int, ...]]:
    """All per-segment fault distributions with total <= max_total.

    Ordered by total then lexicographically, so the fault-free
    distribution comes first.
    """
    distributions: list[tuple[int, ...]] = []
    for total in range(max_total + 1):
        for cuts in itertools.combinations_with_replacement(
                range(segments), total):
            counts = [0] * segments
            for cut in cuts:
                counts[cut] += 1
            distributions.append(tuple(counts))
    return distributions


@dataclass(frozen=True)
class PlanEnumeration:
    """The shared tables behind the fault-plan enumeration order.

    ``copies[d]`` is the d-th copy in enumeration order (process
    declaration order, then copy index), ``copy_plans[d]`` its
    recovery plan, and ``options[d]`` its admissible per-segment fault
    distributions, ordered by total then lexicographically.
    :meth:`plans` walks exactly this tree; :func:`iter_fault_plans`
    and the scenario sweep (:mod:`repro.verify.core`) both delegate to
    it, so every caller sees one emission order by construction.
    """

    k: int
    copies: tuple[CopyKey, ...]
    copy_plans: tuple
    options: tuple[tuple[tuple[int, ...], ...], ...]

    def subtree_leaves(self) -> list[list[int]]:
        """DP table: ``leaves[d][b]`` = plans completable from copy
        ``d`` with ``b`` faults of budget left.

        ``leaves[0][k]`` is the total plan count; :meth:`plans` uses
        the full table to *skip* whole subtrees whose leaf range falls
        outside a contiguous scenario window, so a shard pays only for
        the scenarios it simulates (plus the shared spine).
        """
        depth = len(self.copies)
        table = [[0] * (self.k + 1) for _ in range(depth + 1)]
        table[depth] = [1] * (self.k + 1)
        for d in range(depth - 1, -1, -1):
            per_total: dict[int, int] = {}
            for counts in self.options[d]:
                total = sum(counts)
                per_total[total] = per_total.get(total, 0) + 1
            row = table[d]
            below = table[d + 1]
            for budget in range(self.k + 1):
                row[budget] = sum(
                    count * below[budget - total]
                    for total, count in per_total.items()
                    if total <= budget)
        return table

    @property
    def total(self) -> int:
        """Number of plans the enumeration yields."""
        return self.subtree_leaves()[0][self.k]

    def plans(self, start: int = 0, stop: int | None = None,
              ) -> Iterator[FaultPlan]:
        """Yield plans ``start .. stop-1`` of the enumeration order.

        Budget-pruned recursion rather than product-then-filter: the
        naive cartesian product walks |options|^copies combinations
        even when almost all exceed the budget (5^30 combos for 46k
        valid plans on a 30-process instance). Per-copy options are
        ordered by total, so a branch cuts as soon as one copy
        overdraws, and a subtree whose leaves all lie outside the
        window is skipped whole (:meth:`subtree_leaves`) — its plans
        are never built.
        """
        leaves = self.subtree_leaves()
        total = leaves[0][self.k]
        start = max(0, start)
        stop = total if stop is None else min(stop, total)
        copies = self.copies
        options = self.options
        depth_count = len(copies)
        # The faulty copies of the current branch, in enumeration order.
        faulty: list[tuple[CopyKey, tuple[int, ...]]] = []
        passed = 0  # leaves passed, including skipped subtrees

        def expand(depth: int, remaining: int) -> Iterator[FaultPlan]:
            nonlocal passed
            if depth == depth_count:
                passed += 1
                yield FaultPlan(faults=dict(faulty))
                return
            for counts in options[depth]:
                used = sum(counts)
                if used > remaining:
                    break  # ordered by total: the rest overdraws too
                subtree = leaves[depth + 1][remaining - used]
                if passed + subtree <= start:
                    passed += subtree  # whole subtree before the window
                    continue
                if passed >= stop:
                    return  # whole window emitted
                if used:
                    faulty.append((copies[depth], counts))
                yield from expand(depth + 1, remaining - used)
                if used:
                    faulty.pop()

        if start < stop:
            yield from expand(0, self.k)


def plan_enumeration(app: Application, policies: PolicyAssignment,
                     k: int) -> PlanEnumeration:
    """Build the enumeration tables for one instance."""
    if k < 0:
        raise PolicyError(f"k must be >= 0, got {k}")
    copies: list[CopyKey] = []
    copy_plans: list = []
    options: list[tuple[tuple[int, ...], ...]] = []
    for process in app.process_names:
        policy = policies.of(process)
        for copy_index, plan in enumerate(policy.copies):
            copies.append((process, copy_index))
            copy_plans.append(plan)
            cap = min(plan.recoveries + 1, k)
            options.append(tuple(_copy_distributions(plan.segments,
                                                     cap)))
    return PlanEnumeration(k=k, copies=tuple(copies),
                           copy_plans=tuple(copy_plans),
                           options=tuple(options))


def iter_fault_plans(app: Application, policies: PolicyAssignment,
                     k: int, *, include_fault_free: bool = True,
                     ) -> Iterator[FaultPlan]:
    """Yield every fault plan with at most ``k`` total faults.

    Plans are emitted in nondecreasing order of per-copy budgets but
    not globally sorted by total; the fault-free plan comes first (it
    is skipped unless ``include_fault_free`` is set).
    """
    enumeration = plan_enumeration(app, policies, k)
    yield from enumeration.plans(0 if include_fault_free else 1)


def count_fault_plans(app: Application, policies: PolicyAssignment,
                      k: int) -> int:
    """Number of plans :func:`iter_fault_plans` would yield.

    Counted by dynamic programming over copies (no plan
    materialization), so it is safe to call on large instances before
    deciding whether exhaustive verification is feasible. Exactly
    ``plan_enumeration(...).total`` — the same DP the scenario-sweep
    verifier uses to skip out-of-shard subtrees.
    """
    return plan_enumeration(app, policies, k).total
