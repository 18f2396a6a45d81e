"""One design's schedule tables as integers (paper §5.2).

Both executors that run many plans through one design's tables, the
batched replay kernel (:mod:`repro.kernels.batch`) and the forward
engine (:mod:`repro.des.online`), build from :class:`CompiledSchedule`.
The replay oracle :func:`repro.runtime.simulator.simulate`, which the
kernel is tested against, reads only :data:`KIND_RANK`.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.ftcpg.conditions import AttemptId, ConditionLiteral
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.policies.types import PolicyAssignment
from repro.schedule.mapping import CopyMapping
from repro.schedule.table import EntryKind, ScheduleSet, TableEntry

#: Activation order of entries with equal starts: bus effects before
#: attempts, so an attempt starting exactly at a message arrival sees
#: the data.
KIND_RANK = {EntryKind.BROADCAST: 0, EntryKind.MESSAGE: 1,
             EntryKind.ATTEMPT: 2}


def _rank(kind: EntryKind) -> int:
    """``KIND_RANK[kind]`` by identity tests: an ``EntryKind`` key
    hashes through the Python-level ``Enum.__hash__``."""
    if kind is EntryKind.ATTEMPT:
        return 2
    return 1 if kind is EntryKind.MESSAGE else 0


class CompiledSchedule:
    """What executing one design's tables needs beyond the fault plan.

    ``entries`` is ``schedule.entries`` stably sorted by ``(start,
    KIND_RANK)``. Per entry: its ``rank`` (``KIND_RANK`` of its
    kind), ``guard`` as ``(attempt id, faulty)``
    pairs in literal order, its own ``attempt`` id (-1 for messages),
    the ``node`` id observing the guard (an attempt's location, the
    node of a message's producer copy or a broadcast's copy) and that
    ``copy``'s id (-1 when the policies lack it). Attempt ids are
    dense, in first-mention order (a guard's literals first): id ->
    ``attempts``, ``attempt_copy``. Copy ids follow the policy order.
    """

    def __init__(self, app: Application, arch: Architecture,
                 mapping: CopyMapping, policies: PolicyAssignment,
                 schedule: ScheduleSet) -> None:
        self.node_names = tuple(arch.node_names)
        nid_of = {node: nid for nid, node in enumerate(self.node_names)}
        plans = {(process, index): plan for process, policy in policies.items()
                 for index, plan in enumerate(policy.copies)}
        self.copy_of = {key: cid for cid, key in enumerate(plans)}
        self.copy_node = [nid_of[mapping.node_of(*key)] for key in plans]
        self.copy_segments = [plan.segments for plan in plans.values()]
        self.copy_recoveries = [plan.recoveries for plan in plans.values()]

        raw = schedule.entries
        raw_rank = [_rank(entry.kind) for entry in raw]
        order = sorted(range(len(raw)),
                       key=lambda i: (raw[i].start, raw_rank[i]))
        entries = [raw[i] for i in order]
        attempts: list[AttemptId] = []
        attempt_copy: list[int] = []
        aid_of: dict[AttemptId, int] = {}
        # Entries share guard, literal and attempt objects (a guard
        # extends its parent's literal tuple), so the memos hash each
        # object once, by id(). They hold only objects of ``entries``,
        # which outlive them: no id is recycled while they are in use.
        # A memoized pair is a non-empty tuple, so never falsy.
        att_memo: dict[int, int] = {}
        lit_memo: dict[int, tuple[int, bool]] = {}
        guard_memo: dict[int, tuple[tuple[int, bool], ...]] = {}

        def intern(attempt: AttemptId) -> int:
            aid = att_memo.get(id(attempt))
            if aid is None:
                aid = aid_of.get(attempt)
                if aid is None:
                    aid = aid_of[attempt] = len(attempts)
                    attempts.append(attempt)
                    attempt_copy.append(self.copy_of.get(
                        (attempt.process, attempt.copy), -1))
                att_memo[id(attempt)] = aid
            return aid

        def pair(literal: ConditionLiteral) -> tuple[int, bool]:
            found = lit_memo[id(literal)] = (intern(literal.attempt),
                                             literal.faulty)
            return found

        guards, own, nodes, copies = [], [], [], []
        for entry in entries:
            guard = guard_memo.get(id(entry.guard))
            if guard is None:
                guard = guard_memo[id(entry.guard)] = tuple([
                    lit_memo.get(id(literal)) or pair(literal)
                    for literal in entry.guard.literals])
            guards.append(guard)
            if entry.kind is EntryKind.MESSAGE:
                aid = -1
                key = (app.message(entry.message).src, entry.producer_copy)
                cid = self.copy_of.get(key, -1)
            else:
                aid = intern(entry.attempt)
                key = (entry.attempt.process, entry.attempt.copy)
                cid = attempt_copy[aid]
            own.append(aid)
            copies.append(cid)
            if entry.kind is not EntryKind.ATTEMPT:
                nodes.append(self.copy_node[cid] if cid >= 0
                             else nid_of[mapping.node_of(*key)])
            elif cid < 0:
                raise ValidationError(f"table attempt {entry.attempt.label()} "
                                      "names a copy the policies lack")
            else:
                nodes.append(nid_of[entry.location])
        self.entries: list[TableEntry] = entries
        self.rank = [raw_rank[i] for i in order]
        self.attempts, self.attempt_copy = attempts, attempt_copy
        self.guard, self.attempt, self.node, self.copy = (
            guards, own, nodes, copies)
