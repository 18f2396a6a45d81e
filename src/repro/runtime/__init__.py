"""Distributed runtime (paper §5.2) — simulation and verification.

At run time, a non-preemptive scheduler in each node owns its part of
the schedule tables and activates processes and messages depending on
the observed condition values; values produced on other nodes arrive
via bus broadcasts. :mod:`repro.runtime.simulator` executes a schedule
set under an injected fault scenario and checks every run-time
invariant (processor exclusivity, bus collisions, input availability,
guard decidability, deadlines); :mod:`repro.runtime.verify` drives it
exhaustively over *all* fault scenarios within the budget ``k``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".simulator": ("SimulationResult", "simulate"),
    ".faults": (
        "extend_fault_plans", "sample_des_axes", "sample_fault_plan",
        "sample_fault_plan_exact", "sample_fault_plans"),
    ".verify": (
        "VerificationReport", "verify_tolerance", "verify_tolerance_sampled"),
})

__all__ = [
    "SimulationResult",
    "VerificationReport",
    "extend_fault_plans",
    "sample_des_axes",
    "sample_fault_plan",
    "sample_fault_plan_exact",
    "sample_fault_plans",
    "simulate",
    "verify_tolerance",
    "verify_tolerance_sampled",
]
