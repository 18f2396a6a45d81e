"""The application graph (paper §4).

An :class:`Application` is a directed acyclic graph ``G(V, E)`` whose
nodes are :class:`~repro.model.process.Process` objects and whose edges
are :class:`~repro.model.message.Message` objects. A global hard
deadline ``D`` bounds the completion of every execution scenario; the
optional ``period`` is used by the hyperperiod merge.

The class is immutable after construction and pre-computes the
adjacency and a deterministic topological order, which the schedulers
rely on for tie-breaking.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.errors import ValidationError
from repro.model.message import Message
from repro.model.process import Process
from repro.utils.graphs import topological_order, transitive_successors


class Application:
    """An acyclic application graph with a global deadline."""

    def __init__(
        self,
        processes: Iterable[Process],
        messages: Iterable[Message] = (),
        *,
        deadline: float,
        period: float | None = None,
        name: str = "app",
    ) -> None:
        self._name = name
        self._processes: dict[str, Process] = {}
        for process in processes:
            if process.name in self._processes:
                raise ValidationError(
                    f"duplicate process name {process.name!r}"
                )
            self._processes[process.name] = process
        if not self._processes:
            raise ValidationError("application must have at least 1 process")

        self._messages: dict[str, Message] = {}
        for message in messages:
            if message.name in self._messages:
                raise ValidationError(
                    f"duplicate message name {message.name!r}"
                )
            if message.name in self._processes:
                raise ValidationError(
                    f"name {message.name!r} used for both a process "
                    "and a message"
                )
            for endpoint in (message.src, message.dst):
                if endpoint not in self._processes:
                    raise ValidationError(
                        f"message {message.name!r} references unknown "
                        f"process {endpoint!r}"
                    )
            self._messages[message.name] = message

        if not (math.isfinite(deadline) and deadline > 0):
            raise ValidationError(f"deadline must be positive, got {deadline!r}")
        if period is not None and period <= 0:
            raise ValidationError(f"period must be positive, got {period!r}")
        self._deadline = float(deadline)
        self._period = None if period is None else float(period)

        # Adjacency, keyed by process name, in insertion order.
        self._out: dict[str, list[Message]] = {p: [] for p in self._processes}
        self._in: dict[str, list[Message]] = {p: [] for p in self._processes}
        for message in self._messages.values():
            self._out[message.src].append(message)
            self._in[message.dst].append(message)

        successors = {
            p: [m.dst for m in self._out[p]] for p in self._processes
        }
        # Raises ValidationError on cycles.
        self._topo = tuple(
            topological_order(list(self._processes), successors)
        )

    # -- basic accessors ----------------------------------------------------

    @property
    def name(self) -> str:
        """Application name."""
        return self._name

    @property
    def deadline(self) -> float:
        """Global hard deadline ``D``."""
        return self._deadline

    @property
    def period(self) -> float | None:
        """Execution period ``T`` (``None`` for aperiodic use)."""
        return self._period

    @property
    def process_names(self) -> tuple[str, ...]:
        """Process names in insertion order."""
        return tuple(self._processes)

    @property
    def message_names(self) -> tuple[str, ...]:
        """Message names in insertion order."""
        return tuple(self._messages)

    @property
    def processes(self) -> tuple[Process, ...]:
        """All processes in insertion order."""
        return tuple(self._processes.values())

    @property
    def messages(self) -> tuple[Message, ...]:
        """All messages in insertion order."""
        return tuple(self._messages.values())

    def process(self, name: str) -> Process:
        """Look up a process by name."""
        try:
            return self._processes[name]
        except KeyError:
            raise ValidationError(f"unknown process {name!r}") from None

    def message(self, name: str) -> Message:
        """Look up a message by name."""
        try:
            return self._messages[name]
        except KeyError:
            raise ValidationError(f"unknown message {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._processes or name in self._messages

    def __len__(self) -> int:
        return len(self._processes)

    # -- structure ----------------------------------------------------------

    def inputs_of(self, process_name: str) -> tuple[Message, ...]:
        """Messages consumed by a process."""
        return tuple(self._in[process_name])

    def outputs_of(self, process_name: str) -> tuple[Message, ...]:
        """Messages produced by a process."""
        return tuple(self._out[process_name])

    def predecessors(self, process_name: str) -> tuple[str, ...]:
        """Names of direct predecessor processes (deduplicated)."""
        seen: dict[str, None] = {}
        for message in self._in[process_name]:
            seen.setdefault(message.src, None)
        return tuple(seen)

    def successors(self, process_name: str) -> tuple[str, ...]:
        """Names of direct successor processes (deduplicated)."""
        seen: dict[str, None] = {}
        for message in self._out[process_name]:
            seen.setdefault(message.dst, None)
        return tuple(seen)

    def descendants(self, process_name: str) -> frozenset[str]:
        """All processes reachable from ``process_name``.

        Computed per call rather than stored: a stored map of
        frozensets would pickle in hash order, making pickled
        applications (and the cache entries holding them) depend on
        ``PYTHONHASHSEED``.
        """
        names = list(self._processes)
        successors = {name: self.successors(name) for name in names}
        return transitive_successors(names, successors)[process_name]

    @property
    def topological_order(self) -> tuple[str, ...]:
        """A deterministic topological order of the process names."""
        return self._topo

    @property
    def sources(self) -> tuple[str, ...]:
        """Processes with no predecessors, in topological order."""
        return tuple(p for p in self._topo if not self._in[p])

    @property
    def sinks(self) -> tuple[str, ...]:
        """Processes with no successors, in topological order."""
        return tuple(p for p in self._topo if not self._out[p])

    # -- derived metrics ----------------------------------------------------

    def mean_wcet(self) -> float:
        """Mean WCET over all (process, allowed node) pairs.

        Used by workload generators to size overheads relative to
        computation times.
        """
        total = 0.0
        count = 0
        for process in self._processes.values():
            for value in process.wcet.values():
                total += value
                count += 1
        return total / count

    def with_deadline(self, deadline: float) -> "Application":
        """Copy of this application with a different global deadline."""
        return Application(
            self.processes,
            self.messages,
            deadline=deadline,
            period=self._period,
            name=self._name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Application({self._name!r}, processes={len(self._processes)}, "
            f"messages={len(self._messages)}, deadline={self._deadline})"
        )
