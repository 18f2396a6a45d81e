"""Fault-tolerant schedule length estimation (paper §6, as in [13]).

The exact conditional scheduler is exponential in ``k``; design-space
exploration needs a cost function that is cheap, deterministic and a
*sound upper bound* of the worst-case schedule length. Like the
authors' optimization loop, we list-schedule the fault-free timeline
and account for faults with **recovery-slack sharing**:

* every copy carries its own recovery slack — the extra time it needs
  if it absorbs as many of the ``k`` faults as it can recover from
  (:meth:`repro.policies.recovery.CopyExecution.recovery_slack`);
* copies on one node share a slack window: because the ``k`` faults
  are a single global budget, splitting them between two co-located
  copies is always dominated by concentrating them on the one with the
  larger per-fault cost, so the shared slack is the *max*, not the
  sum, of the individual slacks (running max over the node timeline);
* a cross-node consumer sees the producer's worst-case finish — the
  message is budgeted at its latest time, i.e. node-level transparent
  recovery as in Kandasamy et al. [19] and [13];
* a consumer of a replicated producer waits for **all** copies: with
  ``k >= 1`` faults the adversary can silently kill every copy but the
  slowest, so only the max over copies is guaranteed (and replicas
  therefore add no recovery slack of their own — their failure costs
  no time, only redundancy).

The estimate captures exactly the trade-off the paper's Fig. 7 lives
on: re-execution pays shared recovery slack on the local node, while
replication pays duplicated load and worst-copy waiting but no slack.

**Ordering contract.** The list scheduler selects the next copy to
place exactly like the exact conditional scheduler's context
exploration does (:meth:`repro.schedule.conditional.
ConditionalScheduler._best_attempt`): among the ready copies, the one
with the earliest start — ``max(ready, node free)`` — wins, ties
broken by descending priority, then by ``(process name, copy index)``.
Matching the exact scheduler's serialization matters for soundness,
not just fidelity: an earlier priority-first selection could place
two co-located copies in the *opposite* order from the exact tables,
delaying one of them — and every cross-node consumer downstream — by
whole WCETs beyond the estimate, which no bus-round allowance covers
(the ``4p-3n-s283`` regression pinned in
``tests/test_campaigns.py::TestSoundnessSeam``).

Like the authors' estimator it is an *estimate*, not a certified
bound: the exact conditional scheduler additionally pays
condition-broadcast frames and knowledge waits on the bus (at most one
TDMA round per observed fault and per cross-node dependency), which
the estimate does not model — the campaign/verify bound of
:func:`repro.campaigns.stats.estimate_bound` adds that allowance on
top. Final designs should be validated with
:func:`repro.schedule.conditional.synthesize_schedule` plus
:func:`repro.runtime.verify.verify_tolerance` where feasible.

Incremental re-evaluation
-------------------------

Design optimization evaluates thousands of candidates that differ
from their parent by a *single* move (one copy remapped, one policy
replaced). :class:`EstimatorState` therefore keeps, alongside the
:class:`FtEstimate`, a replayable trace of the run — the pop order of
the list scheduler, the shared-slack value after every pop, and the
bus transmissions issued at every process completion. Re-evaluating a
moved solution (:meth:`EstimatorState.reevaluate`) replays the trace
prefix that provably cannot have changed and re-runs the scheduler
only from the first position the move can influence. Because
selection is earliest-start-first, the moved process's copies
influence every selection from the moment they join the ready pool
(they compete on start time, not just on a static priority), so the
prefix ends where the process's last predecessor completes — not at
its own first pop. The replay is **exact**: prefix timings and bus
frames are reused verbatim (no float is recomputed), and the suffix
runs the identical algorithm from identical intermediate state, so
the incremental estimate is bit-identical to a full
:func:`estimate_ft_schedule` — the full recompute stays available as
the oracle the tests and benchmarks compare against.

Both paths run one implementation, :class:`_EstimationRun`: a full
estimate (:meth:`EstimatorState.compute`) is a run from position
zero, and an incremental one replays a parent prefix first.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from collections.abc import Mapping
from itertools import islice
from operator import itemgetter
from typing import NamedTuple

from repro.comm.reservations import BusReservations
from repro.comm.tdma import TdmaBus, Transmission
from repro.errors import SchedulingError
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.policies.recovery import CopyExecution
from repro.policies.types import PolicyAssignment, ProcessPolicy
from repro.schedule.mapping import CopyMapping
from repro.schedule.priorities import partial_critical_path_priorities

CopyKey = tuple[str, int]

#: One recorded transmission: (message name, producer copy index,
#: scheduled frames). Replay re-reserves the frames verbatim.
SendRecord = tuple[str, int, Transmission]

Fingerprint = tuple


def _fingerprint_part(name: str, policy: ProcessPolicy,
                      mapping: CopyMapping) -> tuple:
    """One process's part of a fingerprint: ``(name, plans, nodes)``."""
    copies = policy.copies
    return (name,
            tuple((plan.recoveries, plan.checkpoints) for plan in copies),
            tuple(mapping.node_of(name, copy)
                  for copy in range(len(copies))))


def solution_fingerprint(policies: PolicyAssignment,
                         mapping: CopyMapping) -> Fingerprint:
    """Canonical, hashable identity of one (policies, mapping) solution.

    Sorted by process name so two solutions built in different orders
    fingerprint identically; per process it captures every copy's
    recovery plan and placement — exactly the inputs the estimator
    reads from the solution.
    """
    return tuple(_fingerprint_part(name, policy, mapping)
                 for name, policy in sorted(policies.items()))


def moved_fingerprint(parent: Fingerprint, policies: PolicyAssignment,
                      mapping: CopyMapping, changed: str) -> Fingerprint:
    """Fingerprint of a one-move neighbour of the solution ``parent``
    fingerprints.

    ``changed`` names the only process whose policy or placement
    differs (the contract of :meth:`EstimatorState.reevaluate`), so
    only its part is rebuilt; the result equals
    :func:`solution_fingerprint` of the neighbour, and shares every
    other part with ``parent``. Parts are sorted by name, so the part
    is found by bisection.
    """
    index = bisect_left(parent, changed, key=itemgetter(0))
    if index == len(parent) or parent[index][0] != changed:
        raise SchedulingError(
            f"unknown process {changed!r} in delta re-evaluation")
    part = _fingerprint_part(changed, policies.of(changed), mapping)
    return parent[:index] + (part,) + parent[index + 1:]


class CopyTiming(NamedTuple):
    """Estimated timing of one copy.

    A ``NamedTuple`` rather than a frozen dataclass: the scheduler
    constructs one per pop in its hottest loop, and tuple construction
    is C-level while a frozen dataclass pays ``object.__setattr__``
    per field.
    """

    node: str
    start: float
    ff_finish: float
    wc_finish: float


@dataclass
class FtEstimate:
    """Result of the slack-sharing estimation."""

    schedule_length: float
    ff_length: float
    timings: dict[CopyKey, CopyTiming]
    deadline: float
    local_deadline_violations: tuple[str, ...]

    @property
    def meets_deadline(self) -> bool:
        """True when the worst case fits the global deadline."""
        return self.schedule_length <= self.deadline + 1e-9

    @property
    def feasible(self) -> bool:
        """Global and local deadlines all met."""
        return self.meets_deadline and not self.local_deadline_violations

    def completion_bound(self, process: str) -> float:
        """Worst-case completion of one process (max over copies)."""
        return max(t.wc_finish for key, t in self.timings.items()
                   if key[0] == process)


#: Slack-sharing modes of :func:`estimate_ft_schedule`.
SLACK_SHARING_MODES = ("max", "budgeted")


class _CopyCost:
    """Per-copy constants of one run chain, computed once per copy.

    The estimator reads only three numbers per scheduled copy: its
    execution calculator (for the budgeted DP), its fault-free
    duration, and its recovery slack at the run's fault budget. All
    three are pure functions of the immutable
    :class:`~repro.policies.recovery.CopyExecution`, so they are
    precomputed at copy expansion and shared across incremental
    re-evaluations instead of being recomputed at every pop.
    """

    __slots__ = ("execution", "duration", "slack")

    def __init__(self, execution: CopyExecution, k: int) -> None:
        self.execution = execution
        self.duration = (execution.fault_free_duration() if k > 0
                         else execution.worst_case_duration(0))
        self.slack = execution.recovery_slack(k)


#: (wcet, plan, alpha, mu, chi, k) -> shared :class:`_CopyCost`. Each
#: value is a pure function of its key, so cross-run sharing cannot
#: change any output; bounded defensively like the send memos.
_COST_MEMO: dict[tuple, _CopyCost] = {}


def _send_uncontended(memo: dict, bus: TdmaBus, node: str, ready: float,
                      size_bytes: int) -> Transmission:
    """An uncontended transmission, memoized across the run chain.

    Without reservations a transmission is a pure function of
    (sender, ready time, payload size): the slot search on an empty
    reservation table. Incremental walks re-issue the same sends
    constantly, so the search is shared via the chain's memo, keyed
    ``(node, ready, size_bytes)``. Bounded defensively — one chain
    sees a few thousand distinct sends in practice.
    """
    memo_key = (node, ready, size_bytes)
    transmission = memo.get(memo_key)
    if transmission is None:
        transmission = bus.schedule_transmission(
            node, ready, size_bytes, BusReservations())
        if len(memo) >= 200_000:
            memo.clear()
        memo[memo_key] = transmission
    return transmission


class _MaxSlackPool:
    """The paper's shared-slack rule: running max of per-copy slacks."""

    __slots__ = ("_slack",)

    def __init__(self, k: int) -> None:
        self._slack = 0.0

    def add(self, cost: _CopyCost) -> float:
        """Fold one scheduled copy; return the shared slack so far."""
        if cost.slack > self._slack:
            self._slack = cost.slack
        return self._slack

    def resume(self, slack: float) -> None:
        """Restore the pool to a recorded running-max value.

        Used by trace replay: the value returned by :meth:`add` *is*
        the complete pool state for this rule, so replay restores it
        directly instead of re-folding the prefix copies.
        """
        self._slack = slack


class _BudgetedSlackPool:
    """Sound shared slack for heterogeneous recovery budgets.

    A fault distribution gives copy ``j`` some ``f_j <= R_j`` of the
    ``k`` faults; each costs ``f_j`` retries (``C/n + mu + alpha``
    each), and when the distribution exhausts the whole budget the
    final retry skips detection (``- alpha`` of the copy absorbing it,
    as in :meth:`~repro.policies.recovery.CopyExecution.
    worst_case_duration`). The shared slack is the *worst distribution
    total*, computed by a DP over the budget — which equals the
    running max whenever some copy can absorb all ``k`` faults at the
    per-fault cost of the maximum, and exceeds it exactly when copies
    saturate (``R_j < k``) and the adversary splits.
    """

    _NEG = float("-inf")

    def __init__(self, k: int) -> None:
        self._k = k
        #: best[b]: worst total slack of exactly ``b`` faults, no
        #: detection discount (used while the budget is not exhausted).
        self._best = [0.0] + [self._NEG] * k
        #: discounted[b]: ditto with the one ``- alpha`` discount of
        #: the copy taking the final, budget-exhausting fault.
        self._discounted = [self._NEG] * (k + 1)

    def add(self, cost: _CopyCost) -> float:
        """Fold one scheduled copy; return the shared slack so far."""
        k = self._k
        if k == 0:
            return 0.0
        execution = cost.execution
        cap = min(execution.plan.recoveries, k)
        if cap > 0:
            per_fault = (execution.segment_time + execution.mu
                         + execution.alpha)
            best, discounted = self._best, self._discounted
            new_best = list(best)
            new_discounted = list(discounted)
            for b in range(1, k + 1):
                for f in range(1, min(cap, b) + 1):
                    gain = f * per_fault
                    if best[b - f] > self._NEG:
                        new_best[b] = max(new_best[b],
                                          best[b - f] + gain)
                        new_discounted[b] = max(
                            new_discounted[b],
                            best[b - f] + gain - execution.alpha)
                    if discounted[b - f] > self._NEG:
                        new_discounted[b] = max(
                            new_discounted[b],
                            discounted[b - f] + gain)
            self._best, self._discounted = new_best, new_discounted
        # Distributions short of the full budget keep detection on
        # every retry (no discount); a full distribution discounts one.
        return max(0.0, max(self._best[:k]), self._discounted[k])


class _AppStructure:
    """Static per-application lookup tables shared across runs.

    The application accessors (``predecessors``, ``successors``,
    ``inputs_of``, ``outputs_of``) rebuild tuples on every call; one
    estimation chain asks for them thousands of times with identical
    answers, so they are materialized once and shared by every run of
    the chain.
    """

    __slots__ = ("blockers", "successors", "inputs", "outputs",
                 "deadlined")

    def __init__(self, app: Application) -> None:
        names = app.process_names
        self.blockers = {name: len(app.predecessors(name))
                         for name in names}
        self.successors = {name: app.successors(name) for name in names}
        self.inputs = {name: app.inputs_of(name) for name in names}
        self.outputs = {name: app.outputs_of(name) for name in names}
        #: Processes with a local deadline, in application order.
        self.deadlined = tuple(
            (process.name, process.deadline)
            for process in app.processes
            if process.deadline is not None)


class EstimatorState:
    """One completed estimation run plus its replayable trace.

    The state binds the evaluated solution and settings to the
    resulting :class:`FtEstimate` and keeps what the incremental path
    needs: the scheduler's pop order, the per-pop shared-slack value,
    the recorded bus transmissions, and each process's first-pop and
    completion positions. :meth:`reevaluate` produces the state of a
    single-process move in (empirically) a fraction of a full run —
    bit-identically, with the full run kept as the oracle.

    States are immutable in practice (nothing mutates them after
    construction) and safely shareable between cache entries: prefix
    traces of child states alias the parent's records.
    """

    __slots__ = (
        "app", "arch", "mapping", "policies", "k", "priorities",
        "bus_contention", "slack_sharing", "estimate",
        "_copies", "_keys_of", "_pops", "_post_slack", "_sends",
        "_first_pop", "_completion",
        "_structure", "_bus", "_send_memo",
    )

    def __init__(self, *, app: Application, arch: Architecture,
                 mapping: CopyMapping, policies: PolicyAssignment,
                 k: int, priorities: dict[str, float],
                 bus_contention: bool, slack_sharing: str,
                 estimate: FtEstimate,
                 copies: dict[CopyKey, _CopyCost],
                 keys_of: dict[str, tuple[CopyKey, ...]],
                 pops: tuple[CopyKey, ...],
                 post_slack: tuple[float, ...],
                 sends: dict[str, tuple[SendRecord, ...]],
                 first_pop: dict[str, int],
                 completion: dict[str, int],
                 structure: "_AppStructure",
                 bus: TdmaBus,
                 send_memo: dict) -> None:
        self.app = app
        self.arch = arch
        self.mapping = mapping
        self.policies = policies
        self.k = k
        self.priorities = priorities
        self.bus_contention = bus_contention
        self.slack_sharing = slack_sharing
        self.estimate = estimate
        self._copies = copies
        self._keys_of = keys_of
        self._pops = pops
        self._post_slack = post_slack
        self._sends = sends
        self._first_pop = first_pop
        self._completion = completion
        self._structure = structure
        self._bus = bus
        self._send_memo = send_memo

    # -- construction ---------------------------------------------------------

    @classmethod
    def compute(
        cls,
        app: Application,
        arch: Architecture,
        mapping: CopyMapping,
        policies: PolicyAssignment,
        fault_model: FaultModel,
        *,
        priorities: Mapping[str, float] | None = None,
        bus_contention: bool = True,
        slack_sharing: str = "max",
    ) -> "EstimatorState":
        """Full evaluation — the oracle the incremental path must match.

        One :class:`_EstimationRun` from position zero, with
        partial-critical-path priorities when none are given. The
        mapping is checked the way the exact scheduler checks it, so
        an illegal placement raises :class:`~repro.errors.MappingError`
        instead of being estimated.
        """
        if slack_sharing not in SLACK_SHARING_MODES:
            raise ValueError(
                f"unknown slack_sharing {slack_sharing!r}, expected one "
                f"of {SLACK_SHARING_MODES}")
        mapping.validate(app, arch, policies)
        if priorities is None:
            priorities = partial_critical_path_priorities(app, arch)
        run = _EstimationRun(app, arch, mapping, policies, fault_model.k,
                             dict(priorities), bus_contention,
                             slack_sharing)
        return run.execute()

    # -- incremental path -----------------------------------------------------

    def reevaluate(self, policies: PolicyAssignment,
                   mapping: CopyMapping,
                   changed: str) -> "EstimatorState":
        """Evaluate a solution differing from this one only at ``changed``.

        ``changed`` names the single process whose policy and/or copy
        placement differs (the ``process`` of a
        :class:`~repro.synthesis.moves.RemapMove` /
        :class:`~repro.synthesis.moves.PolicyMove`); every other
        process must be untouched. Returns a fresh state whose
        estimate is bit-identical to
        :meth:`compute` on the new solution: the scheduler trace is
        replayed up to the first position the change can influence and
        re-run from there.
        """
        divergence = self._divergence_position(policies, mapping, changed)
        if divergence <= 0:
            return self._full(policies, mapping)
        run = _EstimationRun(self.app, self.arch, mapping, policies,
                             self.k, self.priorities,
                             self.bus_contention, self.slack_sharing,
                             reuse_from=self, changed=changed)
        return run.execute(parent=self, divergence=divergence)

    def _full(self, policies: PolicyAssignment,
              mapping: CopyMapping) -> "EstimatorState":
        run = _EstimationRun(self.app, self.arch, mapping, policies,
                             self.k, self.priorities,
                             self.bus_contention, self.slack_sharing,
                             reuse_from=self)
        return run.execute()

    def _divergence_position(self, policies: PolicyAssignment,
                             mapping: CopyMapping, changed: str) -> int:
        """First trace position the move can influence.

        Selection is earliest-start-first, so ``changed``'s copies
        compete in every selection from the moment they join the
        ready pool — the pop right after its last predecessor
        completes (position zero for a source process). Replay stays
        valid past that point as long as the prefix's recorded pops
        keep winning: a recorded pop was the strict minimum over the
        parent's pool, the new pool differs from it only by swapping
        ``changed``'s copies (which had not popped yet), so the pop
        stands unless one of ``changed``'s *new* copies beats its
        recorded candidate ``(start, -priority, key)``. The scan below
        checks exactly that, per prefix position, using the recorded
        start times and a running node-free vector; divergence is the
        first preemption — or the first recorded pop of a ``changed``
        copy the move actually *touched* (different plan or node). An
        untouched copy's recorded pop is value-identical under the
        move (same fixed ready time, duration and slack on the same
        node), so the scan walks straight through it and retires its
        pool candidate; a remap of one replica therefore replays past
        the other replicas' pops.

        Under bus contention one case rewinds *earlier* than the
        pool-entry position: a message *into* ``changed`` changing
        its on-bus decision (a producer skips the bus when all
        consumer copies share its node, so moving the consumer can
        add or remove a prefix transmission — which shifts contended
        frames of unrelated messages too); then divergence falls back
        to that producer's completion. Without contention a
        transmission is a pure function of (sender, finish, size), so
        a flipped input perturbs nothing else in the prefix: the scan
        computes the flipped-on arrival directly from the recorded
        producer finish, and replay re-derives that producer's send
        records instead of adopting them (see
        :meth:`_EstimationRun._replay`).
        """
        if changed not in self._keys_of:
            raise SchedulingError(
                f"unknown process {changed!r} in delta "
                "re-evaluation")
        predecessors = self.app.predecessors(changed)
        entry = (0 if not predecessors
                 else 1 + max(self._completion[name]
                              for name in predecessors))
        old_policy = self.policies.of(changed)
        new_policy = policies.of(changed)
        old_nodes = {self.mapping.node_of(changed, c)
                     for c in range(len(old_policy.copies))}
        new_nodes = {mapping.node_of(changed, c)
                     for c in range(len(new_policy.copies))}
        if self.bus_contention and old_nodes != new_nodes:
            rewind = entry
            for message in self.app.inputs_of(changed):
                producer = message.src
                done_at = self._completion.get(producer)
                if done_at is None or done_at >= rewind:
                    continue
                for src_key in self._keys_of[producer]:
                    src_node = self.mapping.node_of(*src_key)
                    if ((old_nodes <= {src_node})
                            != (new_nodes <= {src_node})):
                        rewind = min(rewind, done_at)
                        break
            if rewind < entry:
                return rewind

        # Preemption scan over the prefix. The fixed ready time of
        # every new copy (constant from pool entry, see _fixed_ready)
        # comes from recorded prefix data: with the on-bus decisions
        # unchanged, every cross-node input arrival the new placement
        # needs was recorded by the parent.
        priorities = self.priorities
        negpri = -priorities[changed]
        inputs = self.app.inputs_of(changed)
        arrival: dict[tuple[str, int], float] = {}
        for message in inputs:
            for m_name, copy_index, transmission in \
                    self._sends.get(message.src, ()):
                if m_name == message.name:
                    arrival[(m_name, copy_index)] = \
                        transmission.arrival
        timings = self.estimate.timings
        release = self.app.process(changed).release
        pool: dict[CopyKey, tuple[float, str]] = {}
        for c in range(len(new_policy.copies)):
            node = mapping.node_of(changed, c)
            ready = release
            for message in inputs:
                for idx, src_key in \
                        enumerate(self._keys_of[message.src]):
                    if self.mapping.node_of(*src_key) == node:
                        value = timings[src_key].ff_finish
                    else:
                        value = arrival.get((message.name, idx))
                        if value is None:
                            # The move flipped this input onto the
                            # bus (no recorded transmission). Only
                            # reachable without contention — the
                            # rewind above handles the contended
                            # case — so the arrival is a pure
                            # function of the recorded finish.
                            value = self._uncontended_arrival(
                                src_key, message.size_bytes)
                    if value > ready:
                        ready = value
            pool[(changed, c)] = (ready, node)

        # A recorded pop of one of ``changed``'s own copies replays
        # too when the move left that copy untouched (same recovery
        # plan on the same node — hence the same fixed ready time,
        # duration and slack): the pop and its whole timing are
        # value-identical, so the scan walks straight through it and
        # retires its pool candidate. A touched copy's pop (or a copy
        # the new policy dropped) is the divergence.
        old_copies = old_policy.copies
        new_copies = new_policy.copies
        untouched = [
            c < len(new_copies)
            and new_copies[c] == old_copies[c]
            and mapping.node_of(changed, c)
            == self.mapping.node_of(changed, c)
            for c in range(len(old_copies))
        ]

        node_free: dict[str, float] = {}
        for position, (key, timing) in enumerate(timings.items()):
            if position >= entry:
                rec_start = timing.start
                rec_negpri = -priorities[key[0]]
                for copy_key, (ready, node) in pool.items():
                    start = node_free.get(node, 0.0)
                    if ready > start:
                        start = ready
                    if start < rec_start or (
                            start == rec_start
                            and (negpri, copy_key)
                            < (rec_negpri, key)):
                        return position
                if key[0] == changed:
                    if not untouched[key[1]]:
                        return position
                    del pool[key]
            node_free[timing.node] = timing.ff_finish
        return len(timings)

    def _uncontended_arrival(self, src_key: CopyKey,
                             size_bytes: int) -> float:
        """Arrival of an uncontended send off a recorded finish.

        Goes through the run chain's send memo (:func:`_send_uncontended`),
        so the value — and the cached transmission a replay will
        reuse — is bit-identical to the one a full run computes.
        """
        return _send_uncontended(
            self._send_memo, self._bus, self.mapping.node_of(*src_key),
            self.estimate.timings[src_key].wc_finish, size_bytes).arrival

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EstimatorState({len(self._pops)} copies, "
                f"k={self.k}, {self.slack_sharing!r}, "
                f"length={self.estimate.schedule_length})")


class _EstimationRun:
    """One execution of the slack-sharing list scheduler.

    Covers both entry points: a full run records the trace from
    position zero; an incremental run first replays a parent trace
    prefix (reusing its timings, slack values and bus frames verbatim)
    and then falls into the identical main loop.
    """

    def __init__(self, app: Application, arch: Architecture,
                 mapping: CopyMapping, policies: PolicyAssignment,
                 k: int, priorities: dict[str, float],
                 bus_contention: bool, slack_sharing: str, *,
                 reuse_from: EstimatorState | None = None,
                 changed: str | None = None) -> None:
        self.app = app
        self.arch = arch
        self.mapping = mapping
        self.policies = policies
        self.k = k
        self.priorities = priorities
        self.bus_contention = bus_contention
        self.slack_sharing = slack_sharing
        self.reservations = BusReservations() if bus_contention else None
        self.changed = changed
        # Flat copy-key -> node table for the hot loops (the
        # per-lookup cost of CopyMapping.node_of adds up over the
        # thousands of pool scans of one run).
        self.node_map: dict[CopyKey, str] = dict(mapping.items())

        # -- shared run-chain context -----------------------------------------
        if reuse_from is not None:
            self.structure = reuse_from._structure
            self.bus = reuse_from._bus
            self.send_memo = reuse_from._send_memo
        else:
            self.structure = _AppStructure(app)
            self.bus = TdmaBus(arch.bus)
            self.send_memo = {}

        # -- expand copies ----------------------------------------------------
        if reuse_from is not None and changed is not None:
            # Only the changed process's executions can differ; every
            # other copy cost is immutable and shared verbatim.
            self.copies = dict(reuse_from._copies)
            self.keys_of = dict(reuse_from._keys_of)
            for copy_index in range(
                    len(reuse_from.policies.of(changed).copies)):
                del self.copies[(changed, copy_index)]
            self._expand_process(changed)
        else:
            self.copies = {}
            self.keys_of = {}
            for process_name, _policy in policies.items():
                self._expand_process(process_name)

        # -- scheduler state --------------------------------------------------
        self.node_free: dict[str, float] = {
            n: 0.0 for n in arch.node_names}
        pool_type = (_MaxSlackPool if slack_sharing == "max"
                     else _BudgetedSlackPool)
        self.node_slack: dict[str, _MaxSlackPool | _BudgetedSlackPool]
        self.node_slack = {n: pool_type(k) for n in arch.node_names}
        self.timings: dict[CopyKey, CopyTiming] = {}
        #: (message name, producer copy index) -> bus arrival time
        self.arrival: dict[tuple[str, int], float] = {}
        self.remaining: dict[str, int] = {
            name: len(keys) for name, keys in self.keys_of.items()}
        self.blockers: dict[str, int] = dict(self.structure.blockers)

        # -- trace ------------------------------------------------------------
        self.pops: list[CopyKey] = []
        self.post_slack: list[float] = []
        self.sends: dict[str, tuple[SendRecord, ...]] = {}
        self.first_pop: dict[str, int] = {}
        self.completion: dict[str, int] = {}

        # Earliest-start-first selection (priority tie-break) — the
        # exact conditional scheduler's serialization order (see the
        # module docstring's ordering contract). The pool maps each
        # ready copy to (fixed ready time, node, -priority): every
        # input of a released process is already timed, so all three
        # are constant from release to pop.
        self.ready_pool: dict[CopyKey, tuple[float, str, float]] = {}

        # Running maxima over all recorded timings (value-exact, so
        # folding during the loops matches a final full scan bit for
        # bit).
        self.max_wc = 0.0
        self.max_ff = 0.0

    def _expand_process(self, process_name: str) -> None:
        process = self.app.process(process_name)
        keys: list[CopyKey] = []
        for copy_index, plan in enumerate(
                self.policies.of(process_name).copies):
            key = (process_name, copy_index)
            node = self.node_map[key]
            # A copy cost is a pure function of this memo key;
            # incremental walks re-expand the changed process with the
            # same few (node, plan) combinations over and over, so the
            # recovery arithmetic is shared across the run chain.
            memo_key = (process.wcet_on(node), plan, process.alpha,
                        process.mu, process.chi, self.k)
            cost = _COST_MEMO.get(memo_key)
            if cost is None:
                execution = CopyExecution(
                    wcet=memo_key[0], plan=plan, alpha=process.alpha,
                    mu=process.mu, chi=process.chi,
                )
                if len(_COST_MEMO) >= 100_000:
                    _COST_MEMO.clear()
                cost = _CopyCost(execution, self.k)
                _COST_MEMO[memo_key] = cost
            self.copies[key] = cost
            keys.append(key)
        self.keys_of[process_name] = tuple(keys)

    # -- ready-set plumbing ---------------------------------------------------

    def _release_copies(self, name: str) -> None:
        negpri = -self.priorities[name]
        node_map = self.node_map
        for key in self.keys_of[name]:
            self.ready_pool[key] = (self._fixed_ready(key),
                                    node_map[key], negpri)

    def _pop_next(self) -> tuple[CopyKey, float, str]:
        """The next copy to schedule, with its start time and node.

        Strict lexicographic minimum over ``(start, -priority, key)``
        — spelled out field by field so the scan allocates no
        candidate tuples.
        """
        if not self.ready_pool:
            raise SchedulingError("estimation deadlock (cycle?)")
        node_free = self.node_free
        best_key = None
        for key, (ready, node, negpri) in self.ready_pool.items():
            start = node_free[node]
            if ready > start:
                start = ready
            if best_key is None or start < best_start or (
                    start == best_start
                    and (negpri, key) < (best_negpri, best_key)):
                best_key = key
                best_start = start
                best_negpri = negpri
                best_node = node
        del self.ready_pool[best_key]
        return best_key, best_start, best_node

    def _fixed_ready(self, key: CopyKey) -> float:
        ready = self.app.process(key[0]).release
        node = self.node_map[key]
        node_map = self.node_map
        timings = self.timings
        arrival = self.arrival
        keys_of = self.keys_of
        for message in self.structure.inputs[key[0]]:
            message_name = message.name
            for src_key in keys_of[message.src]:
                if node_map[src_key] == node:
                    value = timings[src_key].ff_finish
                else:
                    value = arrival[(message_name, src_key[1])]
                if value > ready:
                    ready = value
        return ready

    # -- replay ---------------------------------------------------------------

    def _replay(self, parent: EstimatorState, divergence: int) -> None:
        """Restore the scheduler state at trace position ``divergence``.

        Everything strictly before the divergence position is
        position-for-position identical between the parent run and a
        full run of the moved solution (see
        :meth:`EstimatorState._divergence_position`). Timings, bus
        transmissions and (in ``"max"`` mode) slack-pool values are
        adopted verbatim; the ``"budgeted"`` DP pool has internal
        state beyond its returned value, so it is re-folded over the
        same executions in the same order — deterministic identical
        arithmetic, hence still bit-identical to the oracle.

        One class of records is *re-derived* rather than adopted: on
        an uncontended bus, a prefix producer of the changed process
        may have had an on-bus decision flipped by the move (a send
        is skipped when every consumer copy shares the sender's
        node). Its timings still replay — uncontended transmissions
        perturb nothing else — but its send records are recomputed
        from the adopted finishes under the *new* mapping/policies,
        so unflipped messages come back value-identical through the
        send memo while flipped ones appear or vanish exactly as a
        full run would record them. Under contention the divergence
        scan already rewinds to before such a producer completes, so
        adoption there is always safe.
        """
        refold = self.slack_sharing != "max"
        # Producers of the changed process whose on-bus decision the
        # move may have flipped. The skip test in :meth:`_transmit`
        # compares the consumer node set against the sender's node, so
        # only a changed node set can flip it, and only for senders it
        # brackets — everything else adopts the parent's records.
        resend: set[str] = set()
        if self.reservations is None and self.changed is not None:
            changed = self.changed
            node_map = self.node_map
            old_nodes = {
                parent.mapping.node_of(changed, c)
                for c in range(len(parent.policies.of(changed).copies))}
            new_nodes = {
                node_map[(changed, c)]
                for c in range(len(self.policies.of(changed).copies))}
            if old_nodes != new_nodes:
                for message in self.structure.inputs[changed]:
                    for src_key in self.keys_of[message.src]:
                        src_node = node_map[src_key]
                        if ((old_nodes <= {src_node})
                                != (new_nodes <= {src_node})):
                            resend.add(message.src)
                            break
        prefix_pops = parent._pops[:divergence]
        prefix_slack = parent._post_slack[:divergence]
        self.pops.extend(prefix_pops)
        self.post_slack.extend(prefix_slack)
        # The timings dict of any state is insertion-ordered by pop
        # position, so the prefix items come straight off the front —
        # adopted wholesale, then swept once to restore the running
        # per-node state (last fault-free finish and slack value).
        # Per-name bookkeeping comes from the parent's own
        # first-pop/completion tables, whose sub-``divergence``
        # entries are exactly the prefix's: a position-identical
        # prefix first-pops and completes the same names at the same
        # positions.
        timings = self.timings
        timings.update(islice(parent.estimate.timings.items(),
                              divergence))
        node_free = self.node_free
        node_slack = self.node_slack
        max_wc = 0.0
        max_ff = 0.0
        if refold:
            copies = self.copies
            for key, timing in zip(prefix_pops, timings.values()):
                ff = timing.ff_finish
                wc = timing.wc_finish
                node_free[timing.node] = ff
                node_slack[timing.node].add(copies[key])
                if wc > max_wc:
                    max_wc = wc
                if ff > max_ff:
                    max_ff = ff
        else:
            # Only the last recorded value per node matters: resume
            # overwrites the pool's whole state for this rule.
            last_slack: dict[str, float] = {}
            for timing, slack in zip(timings.values(), prefix_slack):
                ff = timing.ff_finish
                wc = timing.wc_finish
                node_free[timing.node] = ff
                last_slack[timing.node] = slack
                if wc > max_wc:
                    max_wc = wc
                if ff > max_ff:
                    max_ff = ff
            for node, slack in last_slack.items():
                node_slack[node].resume(slack)
        self.max_wc = max_wc
        self.max_ff = max_ff
        remaining = self.remaining
        for key in prefix_pops:
            remaining[key[0]] -= 1
        first_pop = self.first_pop
        for name, position in parent._first_pop.items():
            if position < divergence:
                first_pop[name] = position
        completion = self.completion
        arrival = self.arrival
        sends = self.sends
        blockers = self.blockers
        successors_of = self.structure.successors
        parent_sends = parent._sends
        # ``(round, slot)`` of every adopted frame, re-reserved in one
        # call below (only ever filled under contention, where
        # ``resend`` is empty, so no search runs in between).
        reserved: list[tuple[int, int]] = []
        reserve = reserved.append
        reservations = self.reservations
        for name, position in parent._completion.items():
            if position >= divergence:
                continue
            completion[name] = position
            if name in resend:
                self._transmit(name)
            else:
                records = parent_sends[name]
                sends[name] = records
                for message_name, copy_index, transmission in records:
                    frames = transmission.frames
                    arrival[(message_name, copy_index)] = frames[-1].end
                    if reservations is not None:
                        for frame in frames:
                            reserve(frame[:2])
            for successor in successors_of[name]:
                blockers[successor] -= 1
        if reservations is not None:
            reservations.reserve_all(reserved)
        # Rebuild the ready pool: every copy of a released process
        # that was not popped in the prefix. Earliest-start selection
        # can pop a process's copies out of index order, so the
        # popped set is taken from the prefix itself, not assumed to
        # be a leading slice. Selection is a strict minimum over the
        # full candidate tuple, so pool insertion order never matters.
        popped = set(prefix_pops)
        node_map = self.node_map
        for name, keys in self.keys_of.items():
            if self.blockers[name] != 0:
                continue
            negpri = -self.priorities[name]
            for key in keys:
                if key not in popped:
                    self.ready_pool[key] = (self._fixed_ready(key),
                                            node_map[key], negpri)

    # -- main loop ------------------------------------------------------------

    def execute(self, *, parent: EstimatorState | None = None,
                divergence: int = 0) -> EstimatorState:
        if parent is not None:
            self._replay(parent, divergence)
        else:
            for name in self.app.process_names:
                if self.blockers[name] == 0:
                    self._release_copies(name)

        structure = self.structure
        copies = self.copies
        pops = self.pops
        first_pop = self.first_pop
        node_free = self.node_free
        node_slack = self.node_slack
        post_slack = self.post_slack
        timings = self.timings
        remaining = self.remaining
        completion = self.completion
        blockers = self.blockers
        successors_of = structure.successors
        pop_next = self._pop_next
        transmit = self._transmit
        release_copies = self._release_copies
        scheduled = len(pops)
        total_copies = len(copies)
        max_wc = self.max_wc
        max_ff = self.max_ff
        while scheduled < total_copies:
            # The popped entry's start is max(fixed ready, node free) —
            # exactly the fold of release, same-node fault-free
            # finishes, cross-node arrivals and node availability that
            # a from-scratch scan would compute (max is value-exact on
            # floats, so the fold order is immaterial).
            key, earliest, node = pop_next()
            process_name = key[0]
            cost = copies[key]
            position = scheduled
            pops.append(key)
            if process_name not in first_pop:
                first_pop[process_name] = position

            ff_finish = earliest + cost.duration
            node_free[node] = ff_finish
            shared_slack = node_slack[node].add(cost)
            post_slack.append(shared_slack)
            wc_finish = ff_finish + shared_slack
            timings[key] = CopyTiming(node, earliest,
                                      ff_finish, wc_finish)
            if wc_finish > max_wc:
                max_wc = wc_finish
            if ff_finish > max_ff:
                max_ff = ff_finish
            scheduled += 1
            remaining[process_name] -= 1

            if remaining[process_name] == 0:
                completion[process_name] = position
                transmit(process_name)
                # Release successors whose predecessors are all
                # complete.
                for successor in successors_of[process_name]:
                    blockers[successor] -= 1
                    if blockers[successor] == 0:
                        release_copies(successor)

        self.max_wc = max_wc
        self.max_ff = max_ff
        return self._finish()

    def _transmit(self, process_name: str) -> None:
        """Record every cross-node output of a completed process.

        The message is budgeted at the producer's worst-case finish
        (node-level transparency). Called from the main loop at every
        completion — and from :meth:`_replay` to *re-derive* a prefix
        producer's records when the move may have flipped an on-bus
        decision (same recorded finishes in, so unflipped messages
        come back value-identical through the send memo).
        """
        outputs = self.structure.outputs[process_name]
        if not outputs:
            self.sends[process_name] = ()
            return
        records: list[SendRecord] = []
        node_map = self.node_map
        timings = self.timings
        arrival = self.arrival
        keys_of = self.keys_of
        keys = keys_of[process_name]
        reservations = self.reservations
        bus = self.bus
        send_memo = self.send_memo
        for message in outputs:
            consumer_nodes = {node_map[key]
                              for key in keys_of[message.dst]}
            local_only = len(consumer_nodes) == 1
            name = message.name
            size_bytes = message.size_bytes
            for src_key in keys:
                src_node = node_map[src_key]
                # Skip iff every consumer copy shares the sender's
                # node (consumer_nodes is never empty).
                if local_only and src_node in consumer_nodes:
                    continue
                send_time = timings[src_key].wc_finish
                if reservations is not None:
                    transmission = bus.schedule_transmission(
                        src_node, send_time, size_bytes, reservations)
                else:
                    # Memo hit inline; the helper handles the miss.
                    transmission = send_memo.get(
                        (src_node, send_time, size_bytes))
                    if transmission is None:
                        transmission = _send_uncontended(
                            send_memo, bus, src_node, send_time,
                            size_bytes)
                # ``Transmission.arrival`` without the property call.
                arrival[(name, src_key[1])] = transmission.frames[-1].end
                records.append((name, src_key[1], transmission))
        self.sends[process_name] = tuple(records)

    def _finish(self) -> EstimatorState:
        violations = []
        timings = self.timings
        for name, deadline in self.structure.deadlined:
            bound = max(timings[key].wc_finish
                        for key in self.keys_of[name])
            if bound > deadline + 1e-9:
                violations.append(name)
        estimate = FtEstimate(
            schedule_length=self.max_wc,
            ff_length=self.max_ff,
            timings=self.timings,
            deadline=self.app.deadline,
            local_deadline_violations=tuple(violations),
        )
        return EstimatorState(
            app=self.app, arch=self.arch, mapping=self.mapping,
            policies=self.policies, k=self.k,
            priorities=self.priorities,
            bus_contention=self.bus_contention,
            slack_sharing=self.slack_sharing,
            estimate=estimate,
            copies=self.copies, keys_of=self.keys_of,
            pops=tuple(self.pops),
            post_slack=tuple(self.post_slack),
            sends=self.sends,
            first_pop=self.first_pop,
            completion=self.completion,
            structure=self.structure,
            bus=self.bus,
            send_memo=self.send_memo,
        )


def estimate_ft_schedule(
    app: Application,
    arch: Architecture,
    mapping: CopyMapping,
    policies: PolicyAssignment,
    fault_model: FaultModel,
    *,
    priorities: Mapping[str, float] | None = None,
    bus_contention: bool = True,
    slack_sharing: str = "max",
) -> FtEstimate:
    """Estimate the worst-case fault-tolerant schedule length.

    See the module docstring for the model. Raises
    :class:`SchedulingError` only on structural problems; deadline
    misses are reported in the result, not raised, because the design
    optimizer treats them as penalized costs.

    The estimate is what the tabu search minimizes — thousands of
    calls per synthesis, which is why the
    :class:`~repro.eval.Evaluator` core memoizes it behind a solution
    fingerprint and re-evaluates single-move neighbors incrementally
    (:class:`EstimatorState`):

    >>> from repro.model import FaultModel
    >>> from repro.policies import PolicyAssignment, ProcessPolicy
    >>> from repro.schedule import estimate_ft_schedule
    >>> from repro.synthesis import initial_mapping
    >>> from repro.workloads import fig3_example
    >>> app, arch = fig3_example()
    >>> policies = PolicyAssignment.uniform(
    ...     app, ProcessPolicy.re_execution(1))
    >>> mapping = initial_mapping(app, arch, policies)
    >>> estimate = estimate_ft_schedule(app, arch, mapping, policies,
    ...                                 FaultModel(k=1))
    >>> print(f"worst case {estimate.schedule_length:.1f}, "
    ...       f"fault-free {estimate.ff_length:.1f}")
    worst case 322.0, fault-free 262.0
    >>> estimate.feasible
    True

    ``slack_sharing`` picks the shared-slack rule per node:

    * ``"max"`` (default) — the paper's rule: the running max of the
      per-copy slacks, justified by "concentrating all ``k`` faults on
      the costliest copy dominates any split". That argument silently
      assumes every copy can absorb all ``k`` faults; when a copy's
      recovery count is *below* ``k`` (replication hybrids), the
      adversary splits faults across saturated copies and the max is
      optimistic. Kept as the default because it is the estimator the
      paper's optimization loop uses — every published comparison
      (Fig. 7/8) is defined in its terms.
    * ``"budgeted"`` — sound for heterogeneous recovery budgets: a
      small DP distributes the ``k`` faults among the copies of the
      node (each capped at its own recovery count) and charges the
      worst total. Identical to ``"max"`` whenever every copy can
      absorb ``k`` faults and detection overheads are uniform; used by
      the fault-injection campaigns
      (:mod:`repro.campaigns`) as their certified bound, where this
      optimism was first observed empirically.
    """
    return EstimatorState.compute(
        app, arch, mapping, policies, fault_model,
        priorities=priorities, bus_contention=bus_contention,
        slack_sharing=slack_sharing).estimate
