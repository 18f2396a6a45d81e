"""Interned, fingerprinted problem contexts.

Every evaluation-layer cache answers questions about one *problem*:
a fixed application graph, architecture, fault model and priority
assignment. :class:`ScheduleProblem` identifies it by a canonical,
hashable **fingerprint** of the problem content: two structurally
identical workloads produce the same fingerprint regardless of object
identity or construction order, and :meth:`ScheduleProblem.for_workload`
interns instances so equal problems share one object (and therefore
one :class:`~repro.eval.core.Evaluator` per pool).
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping

from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.schedule.priorities import partial_critical_path_priorities

Fingerprint = tuple


def problem_fingerprint(app: Application, arch: Architecture,
                        fault_model: FaultModel,
                        priorities: Mapping[str, float]) -> Fingerprint:
    """Canonical, hashable identity of one evaluation problem.

    Captures everything the estimator and the exact conditional
    scheduler read from the fixed context: the full process table
    (WCETs, overheads, releases, deadlines, mapping restrictions), the
    message graph, the global deadline, the TDMA bus parameters, the
    fault model and the priority values. Insertion order of the
    priority mapping is normalized away.
    """
    processes = tuple(
        (p.name, tuple(sorted(p.wcet.items())), p.alpha, p.mu, p.chi,
         p.release, p.deadline, p.fixed_node)
        for p in app.processes)
    messages = tuple((m.name, m.src, m.dst, m.size_bytes)
                     for m in app.messages)
    bus = arch.bus
    return (
        ("app", app.name, app.deadline, app.period, processes,
         messages),
        ("arch", arch.name, arch.node_names, bus.slot_order,
         bus.slot_length, bus.slot_payload_bytes),
        ("faults", fault_model.k, fault_model.condition_size_bytes),
        ("priorities", tuple(sorted(priorities.items()))),
    )


#: Interning table: fingerprint -> live ScheduleProblem. Weak values,
#: so finished sweeps do not pin their workloads in memory.
_INTERNED: "weakref.WeakValueDictionary[Fingerprint, ScheduleProblem]"
_INTERNED = weakref.WeakValueDictionary()


class ScheduleProblem:
    """One immutable evaluation context.

    Instances are normally obtained through :meth:`for_workload`,
    which computes default PCP priorities, fingerprints the content
    and interns the result — equal problems compare (and hash) equal
    and usually *are* the same object.

    >>> from repro.model import FaultModel
    >>> from repro.workloads import fig3_example
    >>> app, arch = fig3_example()
    >>> problem = ScheduleProblem.for_workload(app, arch,
    ...                                        FaultModel(k=2))
    >>> problem is ScheduleProblem.for_workload(app, arch,
    ...                                         FaultModel(k=2))
    True
    >>> problem == ScheduleProblem.for_workload(app, arch,
    ...                                         FaultModel(k=1))
    False
    """

    __slots__ = ("app", "arch", "fault_model", "priorities",
                 "fingerprint", "__weakref__")

    def __init__(self, app: Application, arch: Architecture,
                 fault_model: FaultModel,
                 priorities: dict[str, float],
                 fingerprint: Fingerprint) -> None:
        self.app = app
        self.arch = arch
        self.fault_model = fault_model
        self.priorities = priorities
        self.fingerprint = fingerprint

    @classmethod
    def for_workload(cls, app: Application, arch: Architecture,
                     fault_model: FaultModel, *,
                     priorities: Mapping[str, float] | None = None,
                     intern: bool = True) -> "ScheduleProblem":
        """Build (or fetch the interned) problem for a workload.

        ``priorities=None`` selects the default partial-critical-path
        priorities — the same values every search and scheduler
        computes, so explicitly-passed PCP maps and the default land
        on the same fingerprint.
        """
        if priorities is None:
            priorities = partial_critical_path_priorities(app, arch)
        else:
            priorities = dict(priorities)
        fingerprint = problem_fingerprint(app, arch, fault_model,
                                          priorities)
        if intern:
            existing = _INTERNED.get(fingerprint)
            if existing is not None:
                return existing
        problem = cls(app, arch, fault_model, priorities, fingerprint)
        if intern:
            _INTERNED[fingerprint] = problem
        return problem

    @property
    def k(self) -> int:
        """The fault budget of this problem."""
        return self.fault_model.k

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduleProblem):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ScheduleProblem({self.app.name!r}, "
                f"{self.arch.name!r}, k={self.k}, "
                f"{len(self.app)} processes)")
