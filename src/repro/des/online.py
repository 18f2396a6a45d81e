"""Online execution of schedule tables under DES-only fault axes.

The table-replay simulator (:mod:`repro.runtime.simulator`) derives
ground truth from the fault plan *up front* and checks the fired
entries against it — possible only because a per-segment fault count
fully determines every outcome in advance. The axes of
:class:`~repro.ftcpg.scenarios.DesFaultPlan` break that premise:

* an intermittent :class:`~repro.ftcpg.scenarios.FaultWindow` fails
  whatever happens to execute on its node while it is active,
  including the re-executions the counts would have declared
  successful;
* a corrupted TDMA slot (:class:`~repro.ftcpg.scenarios.SlotFault`)
  loses a frame, and the retransmission slots depend on what the bus
  already carries at that point;
* release jitter shifts a process start against an immovable
  time-triggered table.

So this engine runs *forward*: each table entry is a candidate event
at its nominal start; it activates iff its guard is satisfied by the
condition values **observed on its location so far** (the distributed
runtime's view, not the oracle's). Outcomes are decided at attempt
finish, knowledge spreads via broadcasts, lost frames are
retransmitted through :class:`~repro.comm.tdma.TdmaBus` slot
arithmetic, and violations (missed inputs, releases, deadlines,
fault-proof attempts hit by faults) are recorded as errors — those
findings are the reason the axes exist.

Activation stays strictly time-triggered: a TTP-style runtime cannot
slide table entries, so delays surface as errors rather than cascaded
slippage. Within one eps-cluster of the event queue, effects order as
fault toggles < deliveries < finishes < activations, mirroring the
replay rule that bus effects land before attempts start.

The candidate activations do not depend on the plan, so the engine
compiles them once per design: the presorted activation stream of a
:class:`~repro.schedule.compiled.CompiledSchedule`, each entry's
observing node and guard (as indices into a flat knowledge array), a
*guard trie* over those guards, the slots the tables reserve, and the
TDMA bus. A plan only pushes its own fault-window, jitter, finish and
delivery events.

Most entries never fire in a given plan: the tables carry a column
for every scenario. The trie shares guard prefixes — a node is a
prefix of ``(slot, faulty)`` literals in chronological order, its
members the stream positions whose guard ends there — and a plan
matches it as knowledge arrives: the root starts matched; a matched
node wakes its members in the queue and descends into the child of
every slot whose value is, or later becomes, known. The trie ignores
knowledge times and only prunes: a woken entry still passes the full
guard check of :meth:`OnlineEngine._activate`, and an entry whose
guard holds when its cluster runs had its whole path matched by then,
so it was woken. The fired entries are exactly those of a walk that
guard-checks every entry.
"""

from __future__ import annotations

from repro.comm.tdma import TdmaBus
from repro.des.events import DesEvent, DesEventKind
from repro.des.queue import EventQueue, Stream
from repro.ftcpg.conditions import AttemptId
from repro.ftcpg.scenarios import DesFaultPlan
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.policies.types import PolicyAssignment
from repro.runtime.simulator import (
    SimulationResult,
    _validate_plan,
    completion_result,
)
from repro.schedule.compiled import CompiledSchedule
from repro.schedule.mapping import CopyMapping
from repro.schedule.table import EntryKind, ScheduleSet, TableEntry
from repro.utils.mathutils import TIME_EPS, fgt, flt

CopyKey = tuple[str, int]

#: Cluster-internal event priorities (lower runs first). Activations
#: are the queue's stream, which runs after every pushed event of its
#: cluster — rank ``P_ACTIVATE``.
P_FAULT = 0
P_DELIVER = 1
P_FINISH = 2
P_ACTIVATE = 3


class OnlineEngine:
    """Forward (event-driven) execution of DES-only scenarios.

    Construction compiles one design; :meth:`run` executes one plan
    against it and may be called any number of times, each run
    starting from fresh per-plan state. It returns the
    :class:`~repro.runtime.simulator.SimulationResult` plus the full
    ordered event log.
    """

    def __init__(self, app: Application, arch: Architecture,
                 mapping: CopyMapping, policies: PolicyAssignment,
                 fault_model: FaultModel, schedule: ScheduleSet) -> None:
        self.app = app
        self.arch = arch
        self.mapping = mapping
        self.policies = policies
        self.fault_model = fault_model
        self.schedule = schedule
        self.bus = TdmaBus(arch.bus)
        #: Slot occurrences the nominal tables reserve — retransmitted
        #: frames must dodge them all (conservative: also entries that
        #: end up not activating; the runtime cannot know in advance).
        self.reserved: frozenset[tuple[int, int]] = frozenset(
            (frame.round_index, frame.slot_index)
            for entry in schedule.entries
            for frame in entry.frames)

        # The activation stream has one position per entry of the view.
        # Per position: the entry, its observing node, its own attempt
        # id, that attempt's knowledge slot on the node (written at an
        # attempt's finish, read by its broadcast; -1 for messages) and
        # its copy (a message's producer). Attempt ``a`` on node ``n``
        # is knowledge slot ``a * nodes + n``.
        view = CompiledSchedule(app, arch, mapping, policies, schedule)
        self._nodes = nodes = len(view.node_names)
        self._entries = view.entries
        self._node = [view.node_names[nid] for nid in view.node]
        self._attempt = view.attempt
        self._own = [aid * nodes + nid if aid >= 0 else -1
                     for aid, nid in zip(view.attempt, view.node)]
        copy_keys = tuple(view.copy_of)
        self._copy = [copy_keys[cid] if cid >= 0 else None
                      for cid in view.copy]
        self._stream = Stream([entry.start for entry in view.entries])
        self._slot_count = len(view.attempts) * nodes

        # Per position, ``(knowledge slot, faulty)`` per guard literal,
        # and the guard trie; node 0 (the empty guard) is the root.
        self._guards: list[tuple[tuple[int, bool], ...]] = []
        members: list[list[int]] = [[]]
        edges: list[dict[int, list[int]]] = [{}]
        for position, (pairs, nid) in enumerate(zip(view.guard,
                                                    view.node)):
            guard = tuple((aid * nodes + nid, faulty)
                          for aid, faulty in pairs)
            self._guards.append(guard)
            node = 0
            for literal_slot, faulty in guard:
                children = edges[node].setdefault(literal_slot, [-1, -1])
                if children[faulty] < 0:
                    children[faulty] = len(members)
                    members.append([])
                    edges.append({})
                node = children[faulty]
            members[node].append(position)
        #: Per trie node: the stream positions whose guard ends there.
        self._members: tuple[tuple[int, ...], ...] = tuple(
            tuple(positions) for positions in members)
        #: Per trie node: ``(slot, (child if ok, child if faulty))``
        #: per child slot, -1 where no guard continues that way.
        self._edges: tuple[tuple[tuple[int, tuple[int, int]], ...],
                           ...] = tuple(
            tuple((literal_slot, (children[0], children[1]))
                  for literal_slot, children in node_edges.items())
            for node_edges in edges)

    def run(self, plan: DesFaultPlan,
            ) -> tuple[SimulationResult, list[DesEvent]]:
        """Execute the schedule tables forward under ``plan``; a fault
        count or axis value naming nothing in the design raises
        ValidationError."""
        _validate_plan(self.app, self.arch, self.policies, plan)
        self.plan = plan
        self.base = plan.base
        self.events: list[DesEvent] = []
        self.errors: list[str] = []
        if self.base.total_faults > self.fault_model.k:
            self.errors.append(
                f"plan injects {self.base.total_faults} faults, budget "
                f"is {self.fault_model.k}")
        #: Knowledge slot -> (known-at time, observed-faulty value);
        #: a slot is one (attempt, node) pair.
        self.known: list[tuple[float, bool] | None] = \
            [None] * self._slot_count
        self.node_busy: dict[str, float] = {
            n: 0.0 for n in self.arch.node_names}
        self.delivered: dict[str, dict[str, float]] = {}
        self.segment_finish: dict[tuple[CopyKey, int], float] = {}
        self.attempt_finish: dict[AttemptId, float] = {}
        self.completion: dict[CopyKey, float] = {}
        self.copy_faults: dict[CopyKey, int] = {}
        self.copy_dead: set[CopyKey] = set()
        self.fired: list[TableEntry] = []
        #: Slot occurrences this plan's retransmissions took.
        self.retransmitted: set[tuple[int, int]] = set()
        self.corrupted: set[tuple[int, int]] = {
            (fault.round_index, fault.slot_index)
            for fault in plan.slot_faults}

        queue = EventQueue(self._stream)
        self.queue = queue
        #: Guard-trie nodes matched so far, and per knowledge slot the
        #: child pairs of the matched nodes waiting on its value.
        self.matched = bytearray(len(self._members))
        self.waiting: dict[int, list[tuple[int, int]]] = {}
        self._match(0)
        for window in plan.windows:
            queue.push(window.t_on, P_FAULT, ("fault-on", window))
            queue.push(window.t_off, P_FAULT, ("fault-off", window))
        for name in self.app.process_names:
            delay = plan.jitter.get(name, 0.0)
            if delay > 0:
                release = self.app.process(name).release + delay
                queue.push(release, P_FAULT, ("jitter", name, delay))

        while queue:
            for _time, _priority, _seq, payload in queue.pop_cluster():
                self._dispatch(payload)
            for position in queue.pop_woken():
                self._activate(position)
        return completion_result(self.app, self.policies, plan,
                                 self.completion, self.errors,
                                 self.fired), self.events

    # -- event dispatch -----------------------------------------------------

    def _dispatch(self, payload: tuple) -> None:
        handler = payload[0]
        if handler == "finish":
            self._finish_attempt(payload[1])
        elif handler == "deliver-msg":
            self._deliver_message(payload[1], payload[2])
        elif handler == "deliver-bcast":
            self._deliver_broadcast(payload[1], payload[2], payload[3])
        elif handler == "fault-on":
            window = payload[1]
            self._log(window.t_on, DesEventKind.FAULT_ON,
                      window.describe())
        elif handler == "fault-off":
            window = payload[1]
            self._log(window.t_off, DesEventKind.FAULT_OFF,
                      window.describe())
        else:  # "jitter"
            _, name, delay = payload
            release = self.app.process(name).release + delay
            self._log(release, DesEventKind.JITTER,
                      f"{name} released +{delay:g}")

    def _log(self, time: float, kind: DesEventKind, label: str) -> None:
        self.events.append(DesEvent(time=time, kind=kind, label=label))

    def _learn(self, slot: int, at: float, faulty: bool) -> None:
        existing = self.known[slot]
        if existing is None or at < existing[0]:
            self.known[slot] = (at, faulty)
            if existing is None or existing[1] != faulty:
                matched = self.matched
                for children in self.waiting.get(slot, ()):
                    child = children[faulty]
                    if child >= 0 and not matched[child]:
                        self._match(child)

    def _match(self, node: int) -> None:
        """Match one guard-trie node: wake its members, then wait on
        each child slot — registrations stay, so a later flip matches
        the other child too — and descend where the value is known."""
        self.matched[node] = 1
        wake = self.queue.wake
        for position in self._members[node]:
            wake(position)
        known, matched, waiting = self.known, self.matched, self.waiting
        for slot, children in self._edges[node]:
            waiting.setdefault(slot, []).append(children)
            observed = known[slot]
            if observed is not None:
                child = children[observed[1]]
                if child >= 0 and not matched[child]:
                    self._match(child)

    # -- activation ---------------------------------------------------------

    def _activate(self, position: int) -> None:
        """Activate one entry iff its guard is satisfied by the
        condition values known on its observing node at the entry's
        nominal start.

        Unknown or later-arriving literals mean the runtime on that
        location cannot activate the entry — it simply does not fire.
        Only entries the guard trie woke get here (tables carry
        entries for *all* scenarios, and the trie prunes the quiet
        majority), but this check alone decides."""
        known = self.known
        entry = self._entries[position]
        # Knowledge arriving later is unknown at the nominal start.
        latest = entry.start + TIME_EPS
        for slot, faulty in self._guards[position]:
            observed = known[slot]
            if observed is None or observed[0] > latest \
                    or observed[1] != faulty:
                return
        kind = entry.kind
        if kind is EntryKind.ATTEMPT:
            self._activate_attempt(position)
        elif kind is EntryKind.MESSAGE:
            self._activate_message(position)
        else:
            self._activate_broadcast(position, latest)

    def _activate_attempt(self, position: int) -> None:
        entry = self._entries[position]
        attempt = entry.attempt
        key = (attempt.process, attempt.copy)
        node = entry.location
        if key in self.copy_dead:
            return  # fail-silent: the slot idles
        self.fired.append(entry)
        self._log(entry.start, DesEventKind.ATTEMPT_START,
                  f"{attempt.label()} on {node}")

        # Processor exclusivity.
        if flt(entry.start, self.node_busy[node]):
            self.errors.append(
                f"{attempt.label()} overlaps on {node}: start "
                f"{entry.start} < busy-until {self.node_busy[node]}")
        self.node_busy[node] = max(self.node_busy[node], entry.end)

        # Release (with jitter) / inputs / continuity.
        if attempt.segment == 1 and attempt.attempt == 1:
            process = self.app.process(attempt.process)
            release = process.release + self.plan.jitter.get(
                attempt.process, 0.0)
            if flt(entry.start, release):
                self.errors.append(
                    f"{attempt.label()} starts before its release "
                    f"{release:g}")
            for message in self.app.inputs_of(attempt.process):
                at = self.delivered.get(message.name, {}).get(node)
                if at is None or fgt(at, entry.start):
                    self.errors.append(
                        f"{attempt.label()} on {node} starts at "
                        f"{entry.start} without input {message.name!r} "
                        f"(available: {at})")
        elif attempt.attempt == 1:
            prev = self.segment_finish.get((key, attempt.segment - 1))
            if prev is None or fgt(prev, entry.start):
                self.errors.append(
                    f"{attempt.label()} starts before segment "
                    f"{attempt.segment - 1} finished ({prev})")
        else:
            previous = AttemptId(attempt.process, attempt.copy,
                                 attempt.segment, attempt.attempt - 1)
            prev = self.attempt_finish.get(previous)
            if prev is None or fgt(prev, entry.start):
                self.errors.append(
                    f"retry {attempt.label()} starts before attempt "
                    f"{attempt.attempt - 1} was detected faulty ({prev})")

        self.attempt_finish[attempt] = entry.end
        self.queue.push(entry.end, P_FINISH, ("finish", position))

    def _finish_attempt(self, position: int) -> None:
        entry = self._entries[position]
        attempt = entry.attempt
        key = (attempt.process, attempt.copy)
        node = entry.location
        copy_plan = self.policies.of(attempt.process).copies[attempt.copy]

        base_fail = attempt.attempt <= self.base.faults_in(
            attempt.process, attempt.copy, attempt.segment)
        window_hit = any(
            window.node == node and window.hits(entry.start, entry.end)
            for window in self.plan.windows)
        failed = base_fail or window_hit
        if entry.can_fail:
            self._learn(self._own[position], entry.end, failed)

        outcome = "ok"
        if failed:
            outcome = "fault (window)" if window_hit and not base_fail \
                else "fault"
        self._log(entry.end, DesEventKind.ATTEMPT_FINISH,
                  f"{attempt.label()} {outcome}")

        if failed:
            if not entry.can_fail:
                self.errors.append(
                    f"{attempt.label()} was scheduled as fault-proof "
                    "(no detection) but a fault hit it")
            self.copy_faults[key] = self.copy_faults.get(key, 0) + 1
            if self.copy_faults[key] > copy_plan.recoveries:
                self.copy_dead.add(key)
                self._log(entry.end, DesEventKind.COPY_DEAD,
                          f"{attempt.label()} exhausted "
                          f"{copy_plan.recoveries} recoveries")
            return

        self.segment_finish[(key, attempt.segment)] = entry.end
        if copy_plan.uses_checkpointing \
                and attempt.segment < copy_plan.segments:
            self._log(entry.end, DesEventKind.CHECKPOINT,
                      f"{attempt.label()} segment {attempt.segment}")
        if attempt.segment == copy_plan.segments \
                and key not in self.completion:
            self.completion[key] = entry.end
            self._log(entry.end, DesEventKind.COMPLETE,
                      attempt.label())
            for message in self.app.outputs_of(attempt.process):
                slot = self.delivered.setdefault(message.name, {})
                if node not in slot or entry.end < slot[node]:
                    slot[node] = entry.end

    # -- bus ----------------------------------------------------------------

    def _activate_message(self, position: int) -> None:
        if self._copy[position] not in self.completion:
            return  # fail-silent producer: the reserved slots idle
        entry = self._entries[position]
        self.fired.append(entry)
        arrival = self._transmit(entry, self._node[position],
                                 f"{entry.message}")
        self.queue.push(arrival, P_DELIVER,
                        ("deliver-msg", entry, arrival))

    def _activate_broadcast(self, position: int, latest: float) -> None:
        observed = self.known[self._own[position]]
        if observed is None or observed[0] > latest:
            return  # nothing detected yet: nothing to broadcast
        entry = self._entries[position]
        self.fired.append(entry)
        arrival = self._transmit(entry, self._node[position],
                                 f"F[{entry.attempt.label()}]")
        self.queue.push(arrival, P_DELIVER,
                        ("deliver-bcast", position, arrival,
                         observed[1]))

    def _transmit(self, entry: TableEntry, sender_node: str,
                  what: str) -> float:
        """Send the entry's frames; lost ones are retransmitted in the
        sender's next free, uncorrupted slot occurrences. Returns the
        arrival time of the complete payload."""
        if not entry.frames:
            return entry.end
        lost = 0
        arrival = entry.frames[-1].end
        for frame in entry.frames:
            key = (frame.round_index, frame.slot_index)
            coords = f"r{frame.round_index}s{frame.slot_index}"
            if key in self.corrupted:
                lost += 1
                self._log(frame.start, DesEventKind.FRAME_LOST,
                          f"{what} {coords}")
            else:
                self._log(frame.start, DesEventKind.FRAME_SENT,
                          f"{what} {coords}")
        if lost == 0:
            # Undisturbed transmission: arrive exactly when the table
            # says (``entry.end``), bit-compatible with replay.
            return entry.end
        for window in self.bus.owner_slot_occurrences(
                sender_node, entry.frames[-1].end):
            key = (window.round_index, window.slot_index)
            if key in self.reserved or key in self.retransmitted:
                continue
            self.retransmitted.add(key)
            coords = f"r{window.round_index}s{window.slot_index}"
            if key in self.corrupted:
                self._log(window.start, DesEventKind.FRAME_LOST,
                          f"{what} {coords} (retransmit)")
                continue
            self._log(window.start, DesEventKind.FRAME_SENT,
                      f"{what} {coords} (retransmit)")
            lost -= 1
            arrival = window.end
            if lost == 0:
                break
        return arrival

    def _deliver_message(self, entry: TableEntry, arrival: float) -> None:
        self._log(arrival, DesEventKind.MESSAGE_DELIVERED,
                  f"{entry.message} (copy {entry.producer_copy})")
        slot = self.delivered.setdefault(entry.message, {})
        for node in self.arch.node_names:
            if node not in slot or arrival < slot[node]:
                slot[node] = arrival

    def _deliver_broadcast(self, position: int, arrival: float,
                           faulty: bool) -> None:
        value = "fault" if faulty else "ok"
        self._log(arrival, DesEventKind.BROADCAST_DELIVERED,
                  f"F[{self._entries[position].attempt.label()}]={value}")
        # Every node's knowledge slot of the attempt.
        first = self._attempt[position] * self._nodes
        for slot in range(first, first + self._nodes):
            self._learn(slot, arrival, faulty)
