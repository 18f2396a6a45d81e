"""Batched scenario kernel: many fault plans through one schedule.

:class:`BatchedSimulator` compiles one design's conditional schedule
into integer-indexed tables once (a
:class:`~repro.schedule.compiled.CompiledSchedule`, per-entry static
fields, a fault-signature index over its guards) and then advances many
:class:`~repro.ftcpg.scenarios.FaultPlan` scenarios through the table
replay in one pass per plan:

* *delta ground truth* — the fault-free base state is derived once;
  a plan patches only the state of its ≤ k faulty copies;
* *fault-signature index* — an entry's signature is the set of copies
  on which one of its guard literals disagrees with the base state,
  and entries are bucketed by signature. A literal on a copy the plan
  leaves alone still sees the base state, so only entries whose
  signature is a subset of the plan's faulty copies can fire: a plan
  evaluates the guards of at most 2^k buckets instead of every entry
  (the oracle re-filters every entry with a per-literal dict walk for
  every plan — the dominant cost of
  :func:`repro.runtime.simulator.simulate`);
* *index replay* — the per-scenario invariant checks run over flat
  arrays keyed by attempt/copy/node indices instead of composite
  tuple keys.

The kernel follows the happy path only: the moment any invariant
check would produce an error (guard undecidable, overlap, missing
input, bus collision, deadline miss, …) the plan is **re-simulated
through the pure-Python oracle**, which produces the exact error
strings. Clean scenarios are materialized into
:class:`~repro.runtime.simulator.SimulationResult` objects that match
the oracle's byte for byte: the same completed-process dict in
declaration order, the same makespan float, and the original
:class:`~repro.schedule.table.TableEntry` objects in the identical
replay order. Everything is plain Python — ``bytearray`` attempt
states and Python floats — so the kernel needs no optional
dependency.
"""

from __future__ import annotations

from repro.ftcpg.scenarios import FaultPlan
from repro.kernels import counters
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.policies.types import PolicyAssignment
from repro.runtime.simulator import SimulationResult, simulate
from repro.schedule.compiled import CompiledSchedule
from repro.schedule.mapping import CopyMapping
from repro.schedule.table import EntryKind, ScheduleSet
from repro.utils.mathutils import eps_cluster_ids, fgt, flt

#: State per attempt id: succeeded / failed / absent, as in the
#: oracle's ``executed`` dict (presence maps to a ``failed`` bool), so
#: a guard literal's ``faulty`` equals the state it requires.
_OK, _FAILED, _ABSENT = 0, 1, 2


class BatchedSimulator:
    """Compiled batched scenario evaluation of one design."""

    def __init__(self, app: Application, arch: Architecture,
                 mapping: CopyMapping, policies: PolicyAssignment,
                 fault_model: FaultModel,
                 schedule: ScheduleSet) -> None:
        self._app = app
        self._arch = arch
        self._mapping = mapping
        self._policies = policies
        self._fault_model = fault_model
        self._schedule = schedule
        self._k = fault_model.k
        counters.schedules_compiled += 1
        view = CompiledSchedule(app, arch, mapping, policies, schedule)
        self._n_nodes = len(view.node_names)

        # -- copy registry ----------------------------------------------------
        names = tuple(app.process_names)
        pid_of = {name: pid for pid, name in enumerate(names)}
        self._copy_of = view.copy_of
        self._copy_segments = copy_segments = view.copy_segments
        self._copy_recoveries = view.copy_recoveries
        self._copy_nid = view.copy_node
        self._copy_pid_table = [pid_of[process]
                                for process, _copy in view.copy_of]
        # Stride packing (copy, segment) into one int key.
        self._seg_stride = max(copy_segments, default=1) + 2
        n_copies = len(copy_segments)

        # -- per-process tables -----------------------------------------------
        msg_of = {m: i for i, m in enumerate(app.message_names)}
        self._names = names
        self._releases = [app.process(n).release for n in names]
        self._deadlines = [app.process(n).deadline for n in names]
        self._proc_inputs = [
            [msg_of[m.name] for m in app.inputs_of(n)] for n in names]
        self._proc_outputs = [
            [msg_of[m.name] for m in app.outputs_of(n)] for n in names]
        self._proc_copies: list[list[int]] = [[] for _ in names]
        for cidx, pid in enumerate(self._copy_pid_table):
            self._proc_copies[pid].append(cidx)

        # -- aid -> copy, copy -> aids, fault-free base state -----------------
        aid_cidx = view.attempt_copy
        self._copy_aids: list[list[int]] = [[] for _ in range(n_copies)]
        self._copy_att_aid: list[dict[tuple[int, int], int]] = [
            {} for _ in range(n_copies)]
        base_state = bytearray([_ABSENT]) * len(view.attempts)
        for aid, attempt in enumerate(view.attempts):
            cidx = aid_cidx[aid]
            if cidx < 0:
                continue
            self._copy_aids[cidx].append(aid)
            self._copy_att_aid[cidx][(attempt.segment,
                                      attempt.attempt)] = aid
            if attempt.attempt == 1 \
                    and 1 <= attempt.segment <= copy_segments[cidx]:
                base_state[aid] = _OK
        self._base_state = base_state

        # -- per-entry static tables and the fault-signature index -----------
        # Entries are bucketed by the bitmask of copies on which one of
        # their literals disagrees with the base state. An entry with a
        # literal on an attempt of no known copy can never fire (that
        # attempt is absent in every scenario) and is dropped.
        self._entries = entries = view.entries
        self._lits = lits = view.guard
        self._aid = view.attempt
        self._loc_nid = view.node
        self._cidx = cids = view.copy
        self._kind = view.rank
        self._start = [entry.start for entry in entries]
        self._end = [entry.end for entry in entries]
        n_entries = len(entries)
        self._can_fail = [False] * n_entries
        self._segment = [0] * n_entries
        self._attempt_no = [0] * n_entries
        self._prev_aid = [-1] * n_entries
        self._is_last = [False] * n_entries
        self._msg = [-1] * n_entries
        self._frames: list[tuple[tuple[int, int], ...]] = \
            [()] * n_entries
        buckets: dict[int, list[int]] = {}
        for j, entry in enumerate(entries):
            kind = entry.kind
            if kind is EntryKind.ATTEMPT:
                attempt = entry.attempt
                cidx = cids[j]
                self._can_fail[j] = entry.can_fail
                self._segment[j] = attempt.segment
                self._attempt_no[j] = attempt.attempt
                self._is_last[j] = (
                    attempt.segment == copy_segments[cidx])
                if attempt.attempt > 1:
                    # A predecessor no entry or guard mentions stays
                    # -1 (such a retry can only be an oracle-reported
                    # error anyway).
                    self._prev_aid[j] = self._copy_att_aid[cidx].get(
                        (attempt.segment, attempt.attempt - 1), -1)
            else:
                self._frames[j] = tuple(
                    (frame.round_index, frame.slot_index)
                    for frame in entry.frames)
                if kind is EntryKind.MESSAGE:
                    self._msg[j] = msg_of[entry.message]
            signature = 0
            for aid, want in lits[j]:
                cidx = aid_cidx[aid]
                if cidx < 0:
                    break
                if base_state[aid] != want:
                    signature |= 1 << cidx
            else:
                buckets.setdefault(signature, []).append(j)
        self._buckets = buckets

    # -- per-plan evaluation --------------------------------------------------

    def _fired_ids(self, state: bytearray,
                   patched: list[int]) -> list[int]:
        """Indices of fired entries (presort order) for one state.

        ``patched`` holds the copies whose state differs from the base
        state. Outside them every literal sees the base state, so only
        the buckets keyed by a subset of ``patched`` can hold an entry
        that fires; their guards are checked against ``state``.
        """
        signatures = [0]
        for cidx in patched:
            bit = 1 << cidx
            signatures += [signature | bit for signature in signatures]
        buckets = self._buckets
        lits = self._lits
        fired: list[int] = []
        for signature in signatures:
            for j in buckets.get(signature, ()):
                for aid, want in lits[j]:
                    if state[aid] != want:
                        break
                else:
                    fired.append(j)
        fired.sort()
        return fired

    def _patch_copy(self, state, cidx: int,
                    counts: tuple[int, ...]) -> bool:
        """Apply one copy's fault distribution; return its success.

        Mirrors the ground truth :func:`repro.runtime.simulator.simulate`
        derives, over the compiled attempt ids (attempts no entry
        or guard references are unobservable and skipped).
        """
        for aid in self._copy_aids[cidx]:
            state[aid] = _ABSENT
        att_aid = self._copy_att_aid[cidx]
        segments = self._copy_segments[cidx]
        recoveries = self._copy_recoveries[cidx]
        local_faults = 0
        alive = True
        done = 0
        n_counts = len(counts)
        for segment in range(1, segments + 1):
            if not alive:
                break
            faults_here = counts[segment - 1] if segment <= n_counts \
                else 0
            for attempt in range(1, faults_here + 1):
                aid = att_aid.get((segment, attempt))
                if aid is not None:
                    state[aid] = _FAILED
                local_faults += 1
                if local_faults > recoveries:
                    alive = False
                    break
            if not alive:
                break
            aid = att_aid.get((segment, faults_here + 1))
            if aid is not None:
                state[aid] = _OK
            done = segment
        return alive and done == segments

    def simulate_plan(self, plan: FaultPlan) -> SimulationResult:
        """One scenario: kernel replay, oracle fallback on violations."""
        result = None
        if type(plan) is FaultPlan \
                and plan.total_faults <= self._k:
            result = self._try_kernel(plan)
        if result is None:
            counters.oracle_fallbacks += 1
            return simulate(self._app, self._arch, self._mapping,
                            self._policies, self._fault_model,
                            self._schedule, plan)
        counters.batched_scenarios += 1
        return result

    def _try_kernel(self, plan: FaultPlan) -> SimulationResult | None:
        # -- delta ground truth + guard evaluation ----------------------------
        state = bytearray(self._base_state)
        success: dict[int, bool] = {}
        for key, counts in plan.faults.items():
            cidx = self._copy_of.get(key)
            if cidx is None or len(counts) > self._copy_segments[cidx]:
                return None  # names nothing here: simulate() raises
            if any(counts):  # an all-zero distribution is the base state
                success[cidx] = self._patch_copy(state, cidx, counts)
        fired_ids = self._fired_ids(state, list(success))

        # -- per-plan replay order (subset eps-clustering) --------------------
        starts = self._start
        kinds = self._kind
        sub_starts = [starts[j] for j in fired_ids]
        groups = eps_cluster_ids(sub_starts)
        replay = sorted(
            range(len(fired_ids)),
            key=lambda i: (groups[i], kinds[fired_ids[i]],
                           sub_starts[i]))
        order = [fired_ids[i] for i in replay]

        # -- prime: condition-knowledge times ---------------------------------
        ends = self._end
        aids = self._aid
        n_nodes = self._n_nodes
        known: dict[int, float] = {}
        for j in order:
            kind = kinds[j]
            aid = aids[j]
            if kind == 2:
                if self._can_fail[j] and aid >= 0 \
                        and state[aid] != _ABSENT:
                    key = aid * n_nodes + self._loc_nid[j]
                    end = ends[j]
                    have = known.get(key)
                    if have is None or end < have:
                        known[key] = end
            elif kind == 0:
                if aid >= 0 and state[aid] != _ABSENT:
                    end = ends[j]
                    base = aid * n_nodes
                    for nid in range(n_nodes):
                        key = base + nid
                        have = known.get(key)
                        if have is None or end < have:
                            known[key] = end

        # -- replay -----------------------------------------------------------
        node_busy = [0.0] * n_nodes
        slot_owner: dict[tuple[int, int], int] = {}
        delivered: dict[int, float] = {}
        segment_finish: dict[int, float] = {}
        attempt_finish: dict[int, float] = {}
        completion: list[float | None] = [None] * len(self._copy_nid)
        copy_nid = self._copy_nid
        copy_pid = self._copy_pid_table
        seg_stride = self._seg_stride
        lits = self._lits
        for j in order:
            kind = kinds[j]
            start = starts[j]
            end = ends[j]
            if kind == 2:
                aid = aids[j]
                state_val = state[aid]
                if state_val == _ABSENT:
                    continue  # dead copy: the slot idles
                nid = self._loc_nid[j]
                for lit_aid, _want in lits[j]:
                    at = known.get(lit_aid * n_nodes + nid)
                    if at is None or fgt(at, start):
                        return None
                if flt(start, node_busy[nid]):
                    return None
                if end > node_busy[nid]:
                    node_busy[nid] = end
                cidx = self._cidx[j]
                segment = self._segment[j]
                attempt_no = self._attempt_no[j]
                pid = copy_pid[cidx]
                if segment == 1 and attempt_no == 1:
                    if flt(start, self._releases[pid]):
                        return None
                    for msg in self._proc_inputs[pid]:
                        at = delivered.get(msg * n_nodes + nid)
                        if at is None or fgt(at, start):
                            return None
                elif attempt_no == 1:
                    prev = segment_finish.get(
                        cidx * seg_stride + (segment - 1))
                    if prev is None or fgt(prev, start):
                        return None
                else:
                    prev_aid = self._prev_aid[j]
                    prev = (attempt_finish.get(prev_aid)
                            if prev_aid >= 0 else None)
                    if prev is None or fgt(prev, start):
                        return None
                attempt_finish[aid] = end
                if state_val == _FAILED:
                    if not self._can_fail[j]:
                        return None
                else:
                    segment_finish[cidx * seg_stride + segment] = end
                    if self._is_last[j] and success.get(cidx, True):
                        completion[cidx] = end
                        nd = copy_nid[cidx]
                        for msg in self._proc_outputs[pid]:
                            key = msg * n_nodes + nd
                            have = delivered.get(key)
                            if have is None or end < have:
                                delivered[key] = end
            else:
                for frame_key in self._frames[j]:
                    other = slot_owner.get(frame_key)
                    if other is not None and other != j:
                        return None
                    slot_owner[frame_key] = j
                if kind == 1:
                    cidx = self._cidx[j]
                    if cidx < 0 or not success.get(cidx, True):
                        continue  # dead copy: fail-silent
                    sent_at = completion[cidx]
                    if sent_at is None or fgt(sent_at, start):
                        return None
                    msg = self._msg[j]
                    for nid in range(n_nodes):
                        key = msg * n_nodes + nid
                        have = delivered.get(key)
                        if have is None or end < have:
                            delivered[key] = end

        # -- completion & deadline checks -------------------------------------
        completed: dict[str, float] = {}
        for pid, name in enumerate(self._names):
            best = None
            for cidx in self._proc_copies[pid]:
                finish = completion[cidx]
                if finish is not None and (best is None
                                           or finish < best):
                    best = finish
            if best is None:
                return None  # never completed: oracle reports it
            deadline = self._deadlines[pid]
            if deadline is not None and fgt(best, deadline):
                return None
            completed[name] = best
        makespan = max(completed.values()) if completed \
            else float("inf")
        if fgt(makespan, self._app.deadline):
            return None
        entries = self._entries
        return SimulationResult(
            plan=plan,
            completed=completed,
            makespan=makespan,
            errors=[],
            fired_entries=tuple(entries[j] for j in order),
        )
