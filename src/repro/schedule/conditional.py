"""Exact quasi-static conditional scheduling (paper §5).

The scheduler explores a **context tree**. A context is one partially
resolved fault scenario: the conjunction of condition values observed
so far (its guard), the per-copy progress, the processor and bus state.
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
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class _CopyState:
    """Progress of one copy inside a context (immutable: forks share)."""

    segment: int = 1
    attempt: int = 1
    local_faults: int = 0
    ready: float = 0.0
    status: str = "waiting"  # waiting | ready | running | done
    finish: float | None = None


@dataclass(frozen=True)
class _Knowledge:
    """Where and when a condition value becomes known."""

    node: str
    local_time: float
    remote_time: float


@dataclass(frozen=True)
class _Send:
    """A message instance waiting for a bus slot."""

    message: str
    producer_copy: int
    node: str
    ready: float
    size_bytes: int
    frozen: bool


class _Context:
    """Mutable scheduling state of one branch of the context tree."""

    __slots__ = ("guard", "budget_used", "states", "node_free", "bus",
                 "sends", "branches", "avail", "known", "done_count")

    def __init__(self, guard: Guard, budget_used: int,
                 states: dict[CopyKey, _CopyState],
                 node_free: dict[str, float], bus: BusReservations,
                 sends: list[_Send], branches: list, avail: dict,
                 known: dict[AttemptId, _Knowledge], done_count: int) -> None:
        self.guard = guard
        self.budget_used = budget_used
        self.states = states
        self.node_free = node_free
        self.bus = bus
        self.sends = sends
        self.branches = branches
        self.avail = avail
        self.known = known
        self.done_count = done_count

    def fork(self) -> "_Context":
        return _Context(
            guard=self.guard,
            budget_used=self.budget_used,
            states=dict(self.states),
            node_free=dict(self.node_free),
            bus=self.bus.fork(),
            sends=list(self.sends),
            branches=list(self.branches),
            avail=dict(self.avail),
            known=dict(self.known),
            done_count=self.done_count,
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
        self._copies: dict[CopyKey, CopyExecution] = {}
        self._copy_node: dict[CopyKey, str] = {}
        for process_name, policy in policies.items():
            process = app.process(process_name)
            for copy_index, plan in enumerate(policy.copies):
                key = (process_name, copy_index)
                node = mapping.node_of(process_name, copy_index)
                self._copy_node[key] = node
                self._copies[key] = CopyExecution(
                    wcet=process.wcet_on(node), plan=plan,
                    alpha=process.alpha, mu=process.mu, chi=process.chi)
        #: message name -> True if some consumer copy is on another node
        #: than some producer copy (then the bus carries it).
        self._needs_bus: dict[str, bool] = {}
        for message in app.messages:
            consumer_nodes = {
                self._copy_node[(message.dst, c)]
                for c in range(len(policies.of(message.dst).copies))
            }
            self._needs_bus[message.name] = any(
                consumer_nodes - {self._copy_node[(message.src, c)]}
                for c in range(len(policies.of(message.src).copies))
            )

        # Frozen pins, updated by the fixpoint driver.
        self._process_pins: dict[CopyKey, float] = {}
        self._message_pins: dict[tuple[str, int], float] = {}
        self._pinned_transmissions: dict[tuple[str, int], Transmission] = {}

        # Per-pass accumulators.
        self._entries: list[TableEntry] = []
        self._leaves: list[LeafScenario] = []
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
        ff_leaves = [leaf for leaf in self._leaves
                     if leaf.guard.fault_count() == 0]
        if len(ff_leaves) != 1:
            raise SchedulingError(
                f"expected exactly one fault-free scenario, got "
                f"{len(ff_leaves)}")
        return ScheduleSet(
            entries=tuple(sorted(
                self._entries,
                key=lambda e: (e.location, e.start, len(e.guard),
                               str(e.guard)))),
            leaves=tuple(self._leaves),
            worst_case_length=max(l.makespan for l in self._leaves),
            fault_free_length=ff_leaves[0].makespan,
            deadline=self._app.deadline,
        )

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
        for key in self._copies:
            process = self._app.process(key[0])
            if not self._app.predecessors(key[0]):
                states[key] = _CopyState(status="ready",
                                         ready=process.release)
            else:
                states[key] = _CopyState(status="waiting")
        root = _Context(
            guard=Guard.TRUE,
            budget_used=0,
            states=states,
            node_free={n: 0.0 for n in self._arch.node_names},
            bus=root_bus,
            sends=[],
            branches=[],
            avail={},
            known={},
            done_count=0,
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
            node = self._copy_node[(message.src, producer_copy)]
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
        self._leaves.append(LeafScenario(guard=ctx.guard, makespan=makespan))

    # -- readiness --------------------------------------------------------------

    def _refresh_ready(self, ctx: _Context) -> None:
        for key, state in list(ctx.states.items()):
            if state.status != "waiting":
                continue
            node = self._copy_node[key]
            ready = self._app.process(key[0]).release
            satisfied = True
            for message in self._app.inputs_of(key[0]):
                producer_policy = self._policies.of(message.src)
                for producer_copy in range(len(producer_policy.copies)):
                    delivery = self._delivery_time(
                        ctx, message.name, producer_copy, node)
                    if delivery is None:
                        satisfied = False
                        break
                    ready = max(ready, delivery)
                if not satisfied:
                    break
            if satisfied:
                ctx.states[key] = replace(state, status="ready", ready=ready)

    def _delivery_time(self, ctx: _Context, message_name: str,
                       producer_copy: int, node: str) -> float | None:
        """When (message, producer copy) is available on ``node``;
        ``None`` when not yet scheduled."""
        record = ctx.avail.get((message_name, producer_copy))
        if record is None:
            return None
        src_node, local_time, bus_arrival = record
        if src_node == node:
            return local_time
        return bus_arrival

    # -- action selection ---------------------------------------------------------

    def _best_attempt(self, ctx: _Context):
        best = None
        for key, state in ctx.states.items():
            if state.status != "ready":
                continue
            start = self._attempt_start(ctx, key, state)
            priority = self._priorities[key[0]]
            candidate = (start, -priority, key)
            if best is None or candidate < best:
                best = candidate
        return best

    def _attempt_start(self, ctx: _Context, key: CopyKey,
                       state: _CopyState) -> float:
        node = self._copy_node[key]
        is_frozen_first = (
            state.segment == 1 and state.attempt == 1
            and self._transparency.is_frozen_process(key[0]))
        pin = self._process_pins.get(key) if is_frozen_first else None
        if pin is not None:
            # A pinned frozen start is scenario-independent: the node
            # fires it unconditionally, so no condition knowledge is
            # required (its guard collapses under compression).
            return max(state.ready, ctx.node_free[node], pin)
        return max(state.ready, ctx.node_free[node],
                   self._guard_wait(ctx, node))

    def _guard_wait(self, ctx: _Context, node: str) -> float:
        wait = 0.0
        for literal in ctx.guard.literals:
            knowledge = ctx.known[literal.attempt]
            known_at = (knowledge.local_time if knowledge.node == node
                        else knowledge.remote_time)
            wait = max(wait, known_at)
        return wait

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
                ready = max(send.ready, self._guard_wait(ctx, send.node))
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
        execution = self._copies[key]
        node = self._copy_node[key]

        is_frozen_first = (
            state.segment == 1 and state.attempt == 1
            and self._transparency.is_frozen_process(key[0]))
        if is_frozen_first:
            needed = self._needed_process_pins.get(key, -1.0)
            self._needed_process_pins[key] = max(needed, start)

        can_fail = ctx.budget_used < self._k
        plan = execution.plan
        can_recover = can_fail and state.local_faults < plan.recoveries
        # A frozen activation must behave identically in every
        # scenario: its node cannot know the remaining fault budget at
        # the pinned start, so error detection always runs (the Fig. 1c
        # α-skip needs budget knowledge the frozen table forgoes).
        detection = can_fail or (is_frozen_first and self._k > 0)
        duration = execution.attempt_duration(state.attempt,
                                              can_fail=detection)
        attempt_id = AttemptId(key[0], key[1], state.segment, state.attempt)
        self._entries.append(TableEntry(
            kind=EntryKind.ATTEMPT,
            location=node,
            guard=ctx.guard,
            start=start,
            duration=duration,
            attempt=attempt_id,
            can_fail=detection,
        ))
        finish = start + duration
        ctx.node_free[node] = finish
        ctx.states[key] = replace(state, status="running")

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
        execution = self._copies[key]
        if state.segment < execution.segments:
            ctx.states[key] = replace(
                state, segment=state.segment + 1, attempt=1,
                status="ready", ready=finish)
            return
        ctx.states[key] = replace(state, status="done", finish=finish)
        ctx.done_count += 1
        process_name, copy_index = key
        node = self._copy_node[key]
        for message in self._app.outputs_of(process_name):
            frozen = self._transparency.is_frozen_message(message.name)
            local_time = finish
            if frozen:
                local_time = max(self._message_pins.get(
                    (message.name, copy_index), finish), finish)
                self._need_message_pin(message.name, copy_index, finish)
            ctx.avail[(message.name, copy_index)] = (node, local_time, None)
            if self._needs_bus[message.name]:
                ctx.sends.append(_Send(
                    message=message.name,
                    producer_copy=copy_index,
                    node=node,
                    ready=local_time,
                    size_bytes=message.size_bytes,
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
                     else max(send.ready, self._guard_wait(ctx, send.node)))
            message = self._app.message(send.message)
            transmission = self._bus.schedule_transmission(
                send.node, ready, message.size_bytes, ctx.bus)
        self._entries.append(TableEntry(
            kind=EntryKind.MESSAGE,
            location=BUS,
            guard=ctx.guard,
            start=transmission.start,
            duration=transmission.arrival - transmission.start,
            message=send.message,
            producer_copy=send.producer_copy,
            frames=transmission.frames,
        ))
        src_node, local_time, __ = ctx.avail[(send.message,
                                              send.producer_copy)]
        ctx.avail[(send.message, send.producer_copy)] = (
            src_node, local_time, transmission.arrival)

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
        node = self._copy_node[key]

        if ctx.budget_used >= self._k:
            self._complete_segment(ctx, key, detect)
            return False

        if self._multi_node:
            transmission = self._bus.schedule_transmission(
                node, detect, self._cond_size, ctx.bus)
            self._entries.append(TableEntry(
                kind=EntryKind.BROADCAST,
                location=BUS,
                guard=ctx.guard,
                start=transmission.start,
                duration=transmission.arrival - transmission.start,
                attempt=attempt_id,
                frames=transmission.frames,
            ))
            remote = transmission.arrival
        else:
            remote = detect
        ctx.known[attempt_id] = _Knowledge(
            node=node, local_time=detect, remote_time=remote)

        ok_ctx = ctx.fork()
        ok_ctx.guard = ctx.guard.extended(
            ConditionLiteral(attempt_id, faulty=False))
        self._complete_segment(ok_ctx, key, detect)

        fault_ctx = ctx.fork()
        fault_ctx.guard = ctx.guard.extended(
            ConditionLiteral(attempt_id, faulty=True))
        fault_ctx.budget_used += 1
        state = fault_ctx.states[key]
        fault_ctx.states[key] = replace(
            state, attempt=state.attempt + 1,
            local_faults=state.local_faults + 1,
            status="ready", ready=detect)

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
