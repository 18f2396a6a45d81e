"""Fault-Tolerant Conditional Process Graph (paper §5.1).

The FT-CPG captures every alternative execution scenario caused by
transient faults: a fault in an execution attempt is a *condition*;
conditional edges guard the alternative continuations; synchronization
nodes implement the designer's transparency (frozen) requirements.

* :mod:`repro.ftcpg.conditions` — attempt identifiers, condition
  literals ``F``/``!F`` and conjunctive guards;
* :mod:`repro.ftcpg.graph` — the graph structure (regular nodes,
  conditional nodes, synchronization nodes);
* :mod:`repro.ftcpg.builder` — expansion of an application + policy
  assignment into an FT-CPG;
* :mod:`repro.ftcpg.scenarios` — enumeration of concrete fault
  scenarios (used by the exhaustive tolerance verifier).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".conditions": ("AttemptId", "ConditionLiteral", "Guard"),
    ".graph": ("Ftcpg", "FtcpgEdge", "FtcpgNode", "NodeKind"),
    ".builder": ("build_ftcpg",),
    ".scenarios": (
        "DesFaultPlan", "FaultPlan", "FaultWindow", "SlotFault",
        "count_fault_plans", "iter_fault_plans"),
})

__all__ = [
    "AttemptId",
    "ConditionLiteral",
    "DesFaultPlan",
    "FaultPlan",
    "FaultWindow",
    "Ftcpg",
    "FtcpgEdge",
    "FtcpgNode",
    "Guard",
    "NodeKind",
    "SlotFault",
    "build_ftcpg",
    "count_fault_plans",
    "iter_fault_plans",
]
