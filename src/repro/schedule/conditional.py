"""Exact quasi-static conditional scheduling (paper §5).

The scheduler explores a **context tree**. A context is one partially
resolved fault scenario: the conjunction of condition values observed
so far (its guard), the per-copy progress, the processor and bus state.
It also carries the copies still waiting for inputs, re-checked only
after a delivery, and per node the time at which every condition of
its guard is known there — a running maximum that each fork raises by
the new condition's detection or broadcast arrival, so no step
re-scans the guard. Static per-copy data (node, release, inputs,
outputs, priority, execution times) is built once per scheduler, and
only the last fixpoint pass's entries become table objects.
Scheduling inside a context is deterministic (PCP priorities); when a
fault-prone attempt's detection point is reached, the context forks on
the condition value — the detection time is identical in both children
(the attempt runs to its error check either way), so the timeline
prefix is shared, exactly like the FT-CPG's conditional edges.

Every activation is recorded with the guard of the context that placed
it; because contexts fork lazily (nothing is placed at or after the
earliest pending detection time), each entry's guard is the set of
conditions actually known before its start — the compact columns of
paper Fig. 6.

**Runtime decidability.** An activation on node ``N`` guarded by ``G``
never starts before every condition in ``G`` is known on ``N``: a
condition is known at its detection time on the producing node and at
the arrival of its broadcast elsewhere. Broadcasts are scheduled on the
bus at the fork point, *before* any outcome-dependent traffic, so both
children inherit identical broadcast timing (a condition's value is
unknown in advance — its broadcast slot cannot depend on it).

**Transparency.** Frozen processes/messages must start at one single
time across all contexts. The scheduler runs a fixpoint: a collection
pass observes the latest start needed anywhere, pins every frozen item
there, and re-runs until no pin has to grow (§5.1's synchronization
nodes, operationally).

**Replication.** Replica faults are fail-silent and do not fork the
context: consumers are scheduled after *all* producer copies have
delivered, so whichever copies the faults kill, the inputs are present
(see DESIGN.md §2.5). Only recoverable attempts produce conditions.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from collections.abc import Mapping

from repro.comm.reservations import BusReservations
from repro.comm.tdma import TdmaBus, Transmission
from repro.errors import ContextExplosionError, SchedulingError
from repro.ftcpg.conditions import AttemptId, ConditionLiteral, Guard
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.model.transparency import Transparency
from repro.policies.recovery import CopyExecution
from repro.policies.types import PolicyAssignment
from repro.schedule.mapping import CopyMapping
from repro.schedule.priorities import partial_critical_path_priorities
from repro.schedule.table import (
    BUS,
    EntryKind,
    LeafScenario,
    ScheduleSet,
    TableEntry,
)
from repro.utils.mathutils import TIME_EPS

CopyKey = tuple[str, int]

#: Default limit on explored contexts before giving up.
DEFAULT_MAX_CONTEXTS = 50_000
#: Maximum iterations of the frozen-pin fixpoint.
_MAX_FROZEN_PASSES = 30


class _CopyState:
    """Progress of one copy inside a context.

    Forked contexts share these objects, so none is ever changed in
    place: every step builds a new one.
    """

    __slots__ = ("segment", "attempt", "local_faults", "ready", "status",
                 "finish")

    def __init__(self, segment: int, attempt: int, local_faults: int,
                 ready: float, status: str,
                 finish: float | None = None) -> None:
        self.segment = segment
        self.attempt = attempt
        self.local_faults = local_faults
        self.ready = ready
        self.status = status  # waiting | ready | running | done
        self.finish = finish


@dataclass(frozen=True)
class _Send:
    """A message instance waiting for a bus slot."""

    message: str
    producer_copy: int
    node: str
    ready: float
    size_bytes: int
    frozen: bool


class _CopyInfo:
    """What the scheduler needs of one copy in every context, built once.

    ``inputs`` holds per input message its name and the number of
    producer copies; ``outputs`` per output message its name, whether
    it is frozen, whether it crosses the bus and its size.
    """

    __slots__ = ("node", "release", "inputs", "outputs", "frozen",
                 "neg_priority", "execution", "segments")

    def __init__(self, node: str, release: float,
                 inputs: tuple[tuple[str, int], ...],
                 outputs: tuple[tuple[str, bool, bool, int], ...],
                 frozen: bool, neg_priority: float,
                 execution: CopyExecution) -> None:
        self.node = node
        self.release = release
        self.inputs = inputs
        self.outputs = outputs
        self.frozen = frozen
        self.neg_priority = neg_priority
        self.execution = execution
        self.segments = execution.segments


class _Context:
    """Mutable scheduling state of one branch of the context tree.

    ``waiting`` lists the copies still waiting for inputs, to re-check
    when ``avail`` has changed since the last check (``avail_changed``);
    ``wait[node]`` is when every condition of ``guard`` is known on
    ``node`` (the latest detection or broadcast arrival among them).
    """

    __slots__ = ("guard", "budget_used", "states", "waiting",
                 "avail_changed", "node_free", "bus", "sends", "branches",
                 "avail", "wait")

    def __init__(self, guard: Guard, budget_used: int,
                 states: dict[CopyKey, _CopyState], waiting: list[CopyKey],
                 avail_changed: bool, node_free: dict[str, float],
                 bus: BusReservations, sends: list[_Send], branches: list,
                 avail: dict, wait: dict[str, float]) -> None:
        self.guard = guard
        self.budget_used = budget_used
        self.states = states
        self.waiting = waiting
        self.avail_changed = avail_changed
        self.node_free = node_free
        self.bus = bus
        self.sends = sends
        self.branches = branches
        self.avail = avail
        self.wait = wait

    def fork(self) -> "_Context":
        return _Context(
            guard=self.guard,
            budget_used=self.budget_used,
            states=dict(self.states),
            waiting=list(self.waiting),
            avail_changed=self.avail_changed,
            node_free=dict(self.node_free),
            bus=self.bus.fork(),
            sends=list(self.sends),
            branches=list(self.branches),
            avail=dict(self.avail),
            wait=dict(self.wait),
        )


class ConditionalScheduler:
    """Builds the conditional schedule tables for a fixed mapping and
    policy assignment."""

    def __init__(
        self,
        app: Application,
        arch: Architecture,
        mapping: CopyMapping,
        policies: PolicyAssignment,
        fault_model: FaultModel,
        transparency: Transparency | None = None,
        *,
        priorities: Mapping[str, float] | None = None,
        max_contexts: int = DEFAULT_MAX_CONTEXTS,
    ) -> None:
        self._app = app
        self._arch = arch
        self._mapping = mapping
        self._policies = policies
        self._k = fault_model.k
        self._cond_size = fault_model.condition_size_bytes
        self._transparency = transparency or Transparency.none()
        self._transparency.validate(app)
        mapping.validate(app, arch, policies)
        policies.validate(app, fault_model.k)
        self._priorities = dict(
            priorities if priorities is not None
            else partial_critical_path_priorities(app, arch))
        self._max_contexts = max_contexts
        self._bus = TdmaBus(arch.bus)
        self._multi_node = len(arch.node_names) > 1

        # Static copy info.
        copy_node: dict[CopyKey, str] = {
            (process_name, copy_index): mapping.node_of(process_name,
                                                        copy_index)
            for process_name, policy in policies.items()
            for copy_index in range(len(policy.copies))}
        #: message name -> True if some consumer copy is on another node
        #: than some producer copy (then the bus carries it).
        self._needs_bus: dict[str, bool] = {}
        for message in app.messages:
            consumer_nodes = {
                copy_node[(message.dst, c)]
                for c in range(len(policies.of(message.dst).copies))
            }
            self._needs_bus[message.name] = any(
                consumer_nodes - {copy_node[(message.src, c)]}
                for c in range(len(policies.of(message.src).copies))
            )
        self._info: dict[CopyKey, _CopyInfo] = {}
        for process_name, policy in policies.items():
            process = app.process(process_name)
            inputs = tuple(
                (message.name, len(policies.of(message.src).copies))
                for message in app.inputs_of(process_name))
            outputs = tuple(
                (message.name,
                 self._transparency.is_frozen_message(message.name),
                 self._needs_bus[message.name], message.size_bytes)
                for message in app.outputs_of(process_name))
            for copy_index, plan in enumerate(policy.copies):
                key = (process_name, copy_index)
                node = copy_node[key]
                self._info[key] = _CopyInfo(
                    node=node, release=process.release, inputs=inputs,
                    outputs=outputs,
                    frozen=self._transparency.is_frozen_process(
                        process_name),
                    neg_priority=-self._priorities[process_name],
                    execution=CopyExecution(
                        wcet=process.wcet_on(node), plan=plan,
                        alpha=process.alpha, mu=process.mu,
                        chi=process.chi))

        # Frozen pins, updated by the fixpoint driver.
        self._process_pins: dict[CopyKey, float] = {}
        self._message_pins: dict[tuple[str, int], float] = {}
        self._pinned_transmissions: dict[tuple[str, int], Transmission] = {}

        # Per-pass accumulators: entries as ``TableEntry`` field tuples
        # and leaves as (guard, makespan); only the last pass's become
        # table objects.
        self._entries: list[tuple] = []
        self._leaves: list[tuple[Guard, float]] = []
        self._contexts_explored = 0
        self._needed_process_pins: dict[CopyKey, float] = {}
        self._needed_message_pins: dict[tuple[str, int], float] = {}

    # -- public --------------------------------------------------------------

    def run(self) -> ScheduleSet:
        """Run the frozen fixpoint and return the schedule tables."""
        for _ in range(_MAX_FROZEN_PASSES):
            self._run_pass()
            if not self._grow_pins():
                break
        else:
            raise SchedulingError(
                "frozen start times did not stabilize within "
                f"{_MAX_FROZEN_PASSES} passes")
        leaves = tuple(LeafScenario(guard=guard, makespan=makespan)
                       for guard, makespan in self._leaves)
        ff_leaves = [leaf for leaf in leaves
                     if leaf.guard.fault_count() == 0]
        if len(ff_leaves) != 1:
            raise SchedulingError(
                f"expected exactly one fault-free scenario, got "
                f"{len(ff_leaves)}")
        return ScheduleSet(
            entries=self._sorted_entries(),
            leaves=leaves,
            worst_case_length=max(l.makespan for l in leaves),
            fault_free_length=ff_leaves[0].makespan,
            deadline=self._app.deadline,
        )

    def _sorted_entries(self) -> tuple[TableEntry, ...]:
        """The last pass's entries by (location, start, guard length,
        guard text). One context's entries share its guard object and
        are placed in a row, so each guard's text is built once."""
        keys = []
        guard = label = None
        for row in self._entries:
            if row[2] is not guard:
                guard = row[2]
                label = str(guard)
            keys.append((row[1], row[3], len(guard), label))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return tuple(TableEntry(*self._entries[i]) for i in order)

    # -- fixpoint driver -------------------------------------------------------

    def _grow_pins(self) -> bool:
        """Raise pins to the latest start observed; True if any grew."""
        grew = False
        for key, needed in self._needed_process_pins.items():
            if needed > self._process_pins.get(key, -1.0) + TIME_EPS:
                self._process_pins[key] = needed
                grew = True
        for key, needed in self._needed_message_pins.items():
            if needed > self._message_pins.get(key, -1.0) + TIME_EPS:
                self._message_pins[key] = needed
                grew = True
        return grew

    def _run_pass(self) -> None:
        self._entries = []
        self._leaves = []
        self._contexts_explored = 0
        self._needed_process_pins = {}
        self._needed_message_pins = {}
        root_bus = BusReservations()
        self._reserve_pinned_transmissions(root_bus)

        states: dict[CopyKey, _CopyState] = {}
        waiting: list[CopyKey] = []
        for key, info in self._info.items():
            if not self._app.predecessors(key[0]):
                states[key] = _CopyState(1, 1, 0, info.release, "ready")
            else:
                states[key] = _CopyState(1, 1, 0, 0.0, "waiting")
                waiting.append(key)
        root = _Context(
            guard=Guard.TRUE,
            budget_used=0,
            states=states,
            waiting=waiting,
            avail_changed=True,
            node_free={n: 0.0 for n in self._arch.node_names},
            bus=root_bus,
            sends=[],
            branches=[],
            avail={},
            wait={n: 0.0 for n in self._arch.node_names},
        )
        self._explore(root)

    def _reserve_pinned_transmissions(self, root_bus: BusReservations,
                                      ) -> None:
        """Pre-reserve the frames of frozen messages so every context
        transmits them in identical slots."""
        self._pinned_transmissions = {}
        pinned = sorted(self._message_pins.items(), key=lambda kv: kv[1])
        for (message_name, producer_copy), ready in pinned:
            if not self._needs_bus[message_name]:
                continue
            message = self._app.message(message_name)
            node = self._info[(message.src, producer_copy)].node
            transmission = self._bus.schedule_transmission(
                node, ready, message.size_bytes, root_bus)
            self._pinned_transmissions[(message_name, producer_copy)] = \
                transmission

    # -- context exploration ---------------------------------------------------

    def _explore(self, ctx: _Context) -> None:
        self._contexts_explored += 1
        if self._contexts_explored > self._max_contexts:
            raise ContextExplosionError(
                f"conditional scheduling exceeded {self._max_contexts} "
                "contexts; reduce k or use the estimation scheduler")
        while True:
            if ctx.avail_changed:
                self._refresh_ready(ctx)
            branch_time = ctx.branches[0][0] if ctx.branches else None

            attempt_choice = self._best_attempt(ctx)
            send_choice = self._best_send(ctx)

            times = []
            if attempt_choice is not None:
                times.append(attempt_choice[0])
            if send_choice is not None:
                times.append(send_choice[0])
            action_time = min(times) if times else None

            if branch_time is not None and (
                    action_time is None
                    or branch_time <= action_time + TIME_EPS):
                if self._process_branch(ctx):
                    return
                continue  # branch degenerated (budget exhausted)
            if action_time is None:
                break
            if send_choice is not None and send_choice[0] <= action_time \
                    + TIME_EPS:
                self._place_send(ctx, send_choice)
            else:
                self._place_attempt(ctx, attempt_choice)

        self._record_leaf(ctx)

    def _record_leaf(self, ctx: _Context) -> None:
        unfinished = [key for key, st in ctx.states.items()
                      if st.status != "done"]
        if unfinished:
            raise SchedulingError(
                f"context ended with unfinished copies: {unfinished}")
        makespan = max(st.finish for st in ctx.states.values())
        self._leaves.append((ctx.guard, makespan))

    # -- readiness --------------------------------------------------------------

    def _refresh_ready(self, ctx: _Context) -> None:
        ctx.avail_changed = False
        if not ctx.waiting:
            return
        still_waiting = []
        for key in ctx.waiting:
            ready = self._inputs_delivered(ctx, self._info[key])
            if ready is None:
                still_waiting.append(key)
                continue
            state = ctx.states[key]
            ctx.states[key] = _CopyState(state.segment, state.attempt,
                                         state.local_faults, ready, "ready")
        ctx.waiting = still_waiting

    @staticmethod
    def _inputs_delivered(ctx: _Context, info: _CopyInfo) -> float | None:
        """When every producer copy of every input of a copy has
        delivered to its node (not before its release); ``None`` while
        one is not yet scheduled."""
        ready = info.release
        for message_name, producers in info.inputs:
            for producer_copy in range(producers):
                record = ctx.avail.get((message_name, producer_copy))
                if record is None:
                    return None
                src_node, local_time, bus_arrival = record
                delivery = (local_time if src_node == info.node
                            else bus_arrival)
                if delivery is None:
                    return None
                ready = max(ready, delivery)
        return ready

    # -- action selection ---------------------------------------------------------

    def _best_attempt(self, ctx: _Context):
        best = None
        for key, state in ctx.states.items():
            if state.status != "ready":
                continue
            info = self._info[key]
            candidate = (self._attempt_start(ctx, key, info, state),
                         info.neg_priority, key)
            if best is None or candidate < best:
                best = candidate
        return best

    def _attempt_start(self, ctx: _Context, key: CopyKey, info: _CopyInfo,
                       state: _CopyState) -> float:
        node = info.node
        if info.frozen and state.segment == 1 and state.attempt == 1:
            pin = self._process_pins.get(key)
            if pin is not None:
                # A pinned frozen start is scenario-independent: the
                # node fires it unconditionally, so no condition
                # knowledge is required (its guard collapses under
                # compression).
                return max(state.ready, ctx.node_free[node], pin)
        return max(state.ready, ctx.node_free[node], ctx.wait[node])

    def _best_send(self, ctx: _Context):
        best = None
        for index, send in enumerate(ctx.sends):
            pinned = (self._pinned_transmissions.get(
                (send.message, send.producer_copy))
                if send.frozen else None)
            if pinned is not None:
                # Pinned frozen transmissions are scenario-independent
                # and pre-reserved — no condition knowledge needed.
                if send.ready <= pinned.start + TIME_EPS:
                    start = pinned.start
                else:
                    # Pin deficiency: remember it and schedule at the
                    # natural time for now; the driver re-runs.
                    self._need_message_pin(
                        send.message, send.producer_copy, send.ready)
                    start = self._probe_send_start(ctx, send, send.ready)
            else:
                ready = max(send.ready, ctx.wait[send.node])
                start = self._probe_send_start(ctx, send, ready)
            candidate = (start, index)
            if best is None or candidate < best:
                best = candidate
        return best

    def _probe_send_start(self, ctx: _Context, send: _Send,
                          ready: float) -> float:
        for window in self._bus.owner_slot_occurrences(send.node, ready):
            if not ctx.bus.is_reserved((window.round_index,
                                        window.slot_index)):
                return window.start
        raise SchedulingError("no bus slot found")  # pragma: no cover

    def _need_message_pin(self, message: str, copy: int,
                          needed: float) -> None:
        key = (message, copy)
        current = self._needed_message_pins.get(key, -1.0)
        self._needed_message_pins[key] = max(current, needed)

    # -- placements ------------------------------------------------------------

    def _place_attempt(self, ctx: _Context, choice) -> None:
        start, _neg_priority, key = choice
        state = ctx.states[key]
        info = self._info[key]
        execution = info.execution
        node = info.node

        is_frozen_first = (info.frozen and state.segment == 1
                           and state.attempt == 1)
        if is_frozen_first:
            needed = self._needed_process_pins.get(key, -1.0)
            self._needed_process_pins[key] = max(needed, start)

        can_fail = ctx.budget_used < self._k
        can_recover = can_fail and \
            state.local_faults < execution.plan.recoveries
        # A frozen activation must behave identically in every
        # scenario: its node cannot know the remaining fault budget at
        # the pinned start, so error detection always runs (the Fig. 1c
        # α-skip needs budget knowledge the frozen table forgoes).
        detection = can_fail or (is_frozen_first and self._k > 0)
        duration = execution.attempt_duration(state.attempt,
                                              can_fail=detection)
        attempt_id = AttemptId(key[0], key[1], state.segment, state.attempt)
        self._entries.append((EntryKind.ATTEMPT, node, ctx.guard, start,
                              duration, attempt_id, None, None, (),
                              detection))
        finish = start + duration
        ctx.node_free[node] = finish
        ctx.states[key] = _CopyState(state.segment, state.attempt,
                                     state.local_faults, state.ready,
                                     "running")

        if can_recover:
            heapq.heappush(
                ctx.branches,
                (finish, next(_branch_counter), key, attempt_id))
        else:
            # Success (or silent death — same timing) is structural.
            self._complete_segment(ctx, key, finish)

    def _complete_segment(self, ctx: _Context, key: CopyKey,
                          finish: float) -> None:
        state = ctx.states[key]
        info = self._info[key]
        if state.segment < info.segments:
            ctx.states[key] = _CopyState(state.segment + 1, 1,
                                         state.local_faults, finish,
                                         "ready")
            return
        ctx.states[key] = _CopyState(state.segment, state.attempt,
                                     state.local_faults, state.ready,
                                     "done", finish)
        copy_index = key[1]
        node = info.node
        for message_name, frozen, needs_bus, size_bytes in info.outputs:
            local_time = finish
            if frozen:
                local_time = max(self._message_pins.get(
                    (message_name, copy_index), finish), finish)
                self._need_message_pin(message_name, copy_index, finish)
            ctx.avail[(message_name, copy_index)] = (node, local_time, None)
            ctx.avail_changed = True
            if needs_bus:
                ctx.sends.append(_Send(
                    message=message_name,
                    producer_copy=copy_index,
                    node=node,
                    ready=local_time,
                    size_bytes=size_bytes,
                    frozen=frozen,
                ))

    def _place_send(self, ctx: _Context, choice) -> None:
        _start, index = choice
        send = ctx.sends.pop(index)
        pinned = (self._pinned_transmissions.get(
            (send.message, send.producer_copy)) if send.frozen else None)
        if pinned is not None and send.ready <= pinned.start + TIME_EPS:
            transmission = pinned
        else:
            ready = (send.ready if pinned is not None
                     else max(send.ready, ctx.wait[send.node]))
            transmission = self._bus.schedule_transmission(
                send.node, ready, send.size_bytes, ctx.bus)
        self._entries.append((EntryKind.MESSAGE, BUS, ctx.guard,
                              transmission.start,
                              transmission.arrival - transmission.start,
                              None, send.message, send.producer_copy,
                              transmission.frames, False))
        src_node, local_time, __ = ctx.avail[(send.message,
                                              send.producer_copy)]
        ctx.avail[(send.message, send.producer_copy)] = (
            src_node, local_time, transmission.arrival)
        ctx.avail_changed = True

    # -- branching ---------------------------------------------------------------

    def _process_branch(self, ctx: _Context) -> bool:
        """Fork the context at the next detection point.

        Returns False without forking when the fault budget was
        exhausted by branches that detected earlier: the attempt was
        placed (with detection) while faults were still possible, but
        by its detection point no fault can occur anymore, so its
        outcome is certain and the context continues linearly.
        """
        detect, __, key, attempt_id = heapq.heappop(ctx.branches)
        node = self._info[key].node

        if ctx.budget_used >= self._k:
            self._complete_segment(ctx, key, detect)
            return False

        if self._multi_node:
            transmission = self._bus.schedule_transmission(
                node, detect, self._cond_size, ctx.bus)
            self._entries.append((EntryKind.BROADCAST, BUS, ctx.guard,
                                  transmission.start,
                                  transmission.arrival - transmission.start,
                                  attempt_id, None, None,
                                  transmission.frames, False))
            remote = transmission.arrival
        else:
            remote = detect
        # Both children's guards gain this condition: it is known at
        # the detection on its own node and at the broadcast arrival
        # elsewhere.
        wait = ctx.wait
        for other in wait:
            wait[other] = max(wait[other],
                              detect if other == node else remote)

        ok_ctx = ctx.fork()
        ok_ctx.guard = ctx.guard.extended(
            ConditionLiteral(attempt_id, faulty=False))
        self._complete_segment(ok_ctx, key, detect)

        fault_ctx = ctx.fork()
        fault_ctx.guard = ctx.guard.extended(
            ConditionLiteral(attempt_id, faulty=True))
        fault_ctx.budget_used += 1
        state = fault_ctx.states[key]
        fault_ctx.states[key] = _CopyState(state.segment, state.attempt + 1,
                                           state.local_faults + 1, detect,
                                           "ready")

        self._explore(ok_ctx)
        self._explore(fault_ctx)
        return True


_branch_counter = itertools.count()


def synthesize_schedule(
    app: Application,
    arch: Architecture,
    mapping: CopyMapping,
    policies: PolicyAssignment,
    fault_model: FaultModel,
    transparency: Transparency | None = None,
    *,
    priorities: Mapping[str, float] | None = None,
    max_contexts: int = DEFAULT_MAX_CONTEXTS,
    compress: bool = True,
) -> ScheduleSet:
    """Build the conditional schedule tables (the set ``S`` of §6).

    Convenience wrapper around :class:`ConditionalScheduler`; with
    ``compress`` the resulting tables merge activations that turned out
    not to depend on a condition.
    """
    scheduler = ConditionalScheduler(
        app, arch, mapping, policies, fault_model, transparency,
        priorities=priorities, max_contexts=max_contexts)
    schedule = scheduler.run()
    return schedule.compressed() if compress else schedule
