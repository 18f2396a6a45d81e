"""Partial-critical-path (PCP) priorities.

Both schedulers order ready work by a static priority: the length
of the longest remaining path from a process to any sink, counting mean
WCETs and a bus-latency estimate per cross-edge. This is the classic
PCP priority function used by the authors' list-scheduling framework
([7], [8]) — good enough for deterministic tie-breaking and sensible
schedules, while keeping every scheduler reproducible.
"""

from __future__ import annotations

from repro.model.application import Application
from repro.model.architecture import Architecture


def partial_critical_path_priorities(
    app: Application,
    arch: Architecture | None = None,
    *,
    comm_penalty: float | None = None,
) -> dict[str, float]:
    """Map each process name to its PCP priority (higher = schedule
    earlier).

    Parameters
    ----------
    app:
        The application graph.
    arch:
        Used only to derive the default communication penalty (one TDMA
        round per edge); pass ``comm_penalty`` to override.
    comm_penalty:
        Latency charged per message edge on the path.
    """
    if comm_penalty is None:
        comm_penalty = arch.bus.round_length if arch is not None else 0.0

    def mean_wcet(process_name: str) -> float:
        wcet = app.process(process_name).wcet
        return sum(wcet.values()) / len(wcet)

    priorities: dict[str, float] = {}
    for process_name in reversed(app.topological_order):
        tail = 0.0
        for successor in app.successors(process_name):
            tail = max(tail, comm_penalty + priorities[successor])
        priorities[process_name] = mean_wcet(process_name) + tail
    return priorities
