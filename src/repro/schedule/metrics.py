"""Schedule and design metrics (paper §5.2 and §6).

The paper lists the *size of the schedule tables* among the quantities
the synthesis trades off ("various trade-offs between the worst case
schedule length, the size of the schedule tables, the degree of
transparency, and the duration of the schedule generation procedure").
This module quantifies those: per-node table sizes (rows, columns,
entries and an estimated memory footprint), scenario-space measures
used by the transparency studies, plus the two design-level objectives
the Pareto explorer (:mod:`repro.dse`) trades against the worst-case
schedule length:

* :func:`transparency_degree` — how much of the application the
  designer froze (paper §3.3's debuggability axis);
* :func:`ft_memory_overhead` — the state memory the fault-tolerance
  policies themselves cost (checkpoint slots and replica images),
  distinct from the schedule-*table* memory measured by
  :func:`schedule_metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ftcpg.conditions import AttemptId, Guard
from repro.model.application import Application
from repro.model.transparency import Transparency
from repro.policies.types import PolicyAssignment
from repro.schedule.table import BUS, EntryKind, ScheduleSet
from repro.utils.mathutils import eps_representatives

#: Rough per-entry footprint of a table cell in a realistic encoding:
#: activation id (2B) + start time (4B) + guard reference (2B).
BYTES_PER_ENTRY = 8
#: Per-column footprint: the guard bitmask/condition list.
BYTES_PER_COLUMN = 4


@dataclass(frozen=True)
class NodeTableSize:
    """Size of one node's (or the bus') schedule table."""

    location: str
    rows: int
    columns: int
    entries: int

    @property
    def memory_bytes(self) -> int:
        """Estimated footprint in the node's static memory."""
        return (self.entries * BYTES_PER_ENTRY
                + self.columns * BYTES_PER_COLUMN)


@dataclass(frozen=True)
class ScheduleMetrics:
    """Aggregate metrics of one schedule set."""

    per_node: tuple[NodeTableSize, ...]
    scenario_count: int
    distinct_guards: int
    distinct_attempt_starts: int
    worst_case_length: float
    fault_free_length: float

    @property
    def total_entries(self) -> int:
        """Total activation entries over all tables."""
        return sum(t.entries for t in self.per_node)

    @property
    def total_memory_bytes(self) -> int:
        """Total estimated table memory over all nodes."""
        return sum(t.memory_bytes for t in self.per_node)

    @property
    def overhead_ratio(self) -> float:
        """Worst-case length relative to the fault-free scenario."""
        if self.fault_free_length <= 0:
            return 1.0
        return self.worst_case_length / self.fault_free_length


def schedule_metrics(schedule: ScheduleSet) -> ScheduleMetrics:
    """Measure a schedule set (paper §5.2's table-size dimension)."""
    # A column is a distinct guard. Entries of one context share their
    # Guard object, and hashing a guard builds a frozenset of its
    # literals, so each guard object is hashed once, into the number
    # of its column; the tables then count column numbers.
    column_of: dict[int, int] = {}
    columns: dict[Guard, int] = {}
    for e in schedule.entries:
        if id(e.guard) not in column_of:
            column_of[id(e.guard)] = columns.setdefault(e.guard,
                                                        len(columns))
    per_node: list[NodeTableSize] = []
    for location in schedule.locations:
        entries = schedule.entries_on(location)
        rows = {e.row_key() for e in entries}
        per_node.append(NodeTableSize(
            location=location,
            rows=len(rows),
            columns=len({column_of[id(e.guard)] for e in entries}),
            entries=len(entries),
        ))
    # Starts of one attempt within TIME_EPS are one start: cluster them
    # instead of rounding, which splits near-equal values that fall on
    # either side of a decimal boundary.
    attempt_starts: dict[AttemptId, list[float]] = {}
    for e in schedule.entries:
        if e.kind is EntryKind.ATTEMPT:
            attempt_starts.setdefault(e.attempt, []).append(e.start)
    return ScheduleMetrics(
        per_node=tuple(per_node),
        scenario_count=schedule.scenario_count,
        distinct_guards=len(columns),
        distinct_attempt_starts=sum(
            len(eps_representatives(starts))
            for starts in attempt_starts.values()),
        worst_case_length=schedule.worst_case_length,
        fault_free_length=schedule.fault_free_length,
    )


# -- design-level objectives (repro.dse) ----------------------------------

#: Floor on a process's proxied live-state size: even a process with no
#: messages carries registers/locals that a checkpoint must store.
MIN_STATE_BYTES = 16
#: Fixed per-replica footprint beyond the state image: code/static data
#: of one more placed copy (same spirit as :data:`BYTES_PER_ENTRY` — a
#: realistic-encoding constant, not a measured value).
REPLICA_IMAGE_BYTES = 128


def process_state_bytes(app: Application, name: str) -> int:
    """Proxied live-state size of one process.

    The model does not carry explicit state sizes, so the recoverable
    state is proxied by the data the process exchanges: the sum of its
    input and output message payloads, floored at
    :data:`MIN_STATE_BYTES`. This is what a checkpoint slot must hold
    (the data needed to re-produce the outputs from the last saved
    point) and what a replica must keep live.
    """
    traffic = sum(m.size_bytes for m in app.inputs_of(name))
    traffic += sum(m.size_bytes for m in app.outputs_of(name))
    return max(MIN_STATE_BYTES, traffic)


@dataclass(frozen=True)
class FtMemoryOverhead:
    """Memory the fault-tolerance policies cost, by mechanism."""

    checkpoint_bytes: int
    replication_bytes: int

    @property
    def total_bytes(self) -> int:
        """Checkpoint plus replication overhead."""
        return self.checkpoint_bytes + self.replication_bytes


def ft_memory_overhead(app: Application, policies: PolicyAssignment,
                       ) -> FtMemoryOverhead:
    """Checkpoint/replication memory overhead of a policy assignment.

    One of the three objectives of the Pareto explorer
    (:mod:`repro.dse`), next to the worst-case schedule length and
    :func:`transparency_degree`:

    * every checkpoint of every copy reserves one state slot
      (``checkpoints × process_state_bytes``) in the node's protected
      memory;
    * every copy beyond the first duplicates the process image and its
      live state (``REPLICA_IMAGE_BYTES + process_state_bytes``) on
      another node.

    A design with no fault tolerance (or pure re-execution, which
    restores the initial inputs instead of saved state) costs 0 —
    re-execution buys its recovery with time, checkpointing and
    replication buy theirs with memory. That is exactly the axis the
    explorer needs to separate the paper's policy classes.
    """
    checkpoint_bytes = 0
    replication_bytes = 0
    for name, policy in policies.items():
        state = process_state_bytes(app, name)
        for plan in policy.copies:
            checkpoint_bytes += plan.checkpoints * state
        extra_copies = len(policy.copies) - 1
        replication_bytes += extra_copies * (REPLICA_IMAGE_BYTES + state)
    return FtMemoryOverhead(checkpoint_bytes=checkpoint_bytes,
                            replication_bytes=replication_bytes)


def transparency_degree(app: Application,
                        transparency: Transparency | None) -> float:
    """Fraction of the application the designer froze, in ``[0, 1]``.

    Counts frozen processes and frozen messages over all processes and
    messages — the paper's §3.3 "degree of transparency" made scalar
    so the Pareto explorer can trade it against schedule length
    (``Transparency.none()`` → 0.0, ``Transparency.full(app)`` → 1.0).

    >>> from repro.workloads import fig3_example
    >>> from repro.model import Transparency
    >>> app, _arch = fig3_example()          # 5 processes, 4 messages
    >>> transparency_degree(app, Transparency.none())
    0.0
    >>> transparency_degree(app, Transparency.full(app))
    1.0
    >>> transparency_degree(app, Transparency.messages_only(app))
    0.4444444444444444
    """
    if transparency is None:
        return 0.0
    total = len(app.process_names) + len(app.message_names)
    if total == 0:
        return 0.0
    frozen = (len(transparency.frozen_processes)
              + len(transparency.frozen_messages))
    return frozen / total


__all__ = [
    "BUS",
    "FtMemoryOverhead",
    "MIN_STATE_BYTES",
    "NodeTableSize",
    "REPLICA_IMAGE_BYTES",
    "ScheduleMetrics",
    "ft_memory_overhead",
    "process_state_bytes",
    "schedule_metrics",
    "transparency_degree",
]
