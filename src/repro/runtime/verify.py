"""Exhaustive tolerance verification (thin serial shim).

The verification engine proper lives in :mod:`repro.verify`: a
streaming, exactly-mergeable :class:`~repro.verify.stats.
VerificationStats`, the scenario-window sweep over the batched
scenario kernel (:class:`~repro.verify.core.ScenarioSweep`), and a
sharded runner fanning scenario windows through the batch engine
(:func:`~repro.verify.runner.run_verification`). This module keeps
the original small-instance API — synchronous, single-process, a
:class:`VerificationReport` with the full failing
:class:`SimulationResult` objects — on top of that core; the results
are bit-identical to a serial ``simulate()`` loop over every plan.

Exhaustive enumeration is exponential; callers should consult
:func:`repro.ftcpg.scenarios.count_fault_plans` first (the
``max_scenarios`` guard below raises instead of running forever; the
sharded runner raises its own, higher ceiling).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import ToleranceViolationError
from repro.ftcpg.scenarios import count_fault_plans
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.model.transparency import Transparency
from repro.policies.types import PolicyAssignment
from repro.runtime.simulator import SimulationResult, simulate
from repro.schedule.mapping import CopyMapping
from repro.schedule.table import ScheduleSet


@dataclass
class VerificationReport:
    """Aggregated outcome of the exhaustive simulation sweep."""

    scenarios: int
    worst_makespan: float
    fault_free_makespan: float
    failures: list[SimulationResult] = field(default_factory=list)
    frozen_violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every scenario was tolerated and transparency held."""
        return not self.failures and not self.frozen_violations

    def raise_on_failure(self) -> None:
        """Raise :class:`ToleranceViolationError` when not ok."""
        if self.ok:
            return
        details = [err for result in self.failures for err in result.errors]
        details.extend(self.frozen_violations)
        shown = "; ".join(details[:5])
        raise ToleranceViolationError(
            f"{len(self.failures)} of {self.scenarios} fault scenarios "
            f"failed, {len(self.frozen_violations)} transparency "
            f"violations: {shown}")


def _report(results: Iterable[SimulationResult],
            transparency: Transparency | None) -> VerificationReport:
    """Fold simulated scenarios into a report, auditing the frozen
    starts of ``transparency``; failing scenarios keep their full
    :class:`SimulationResult`."""
    from repro.verify.stats import VerificationStats

    stats = VerificationStats()
    failures: list[SimulationResult] = []
    for result in results:
        stats.observe(result, transparency)
        if not result.ok:
            failures.append(result)
    return VerificationReport(
        scenarios=stats.scenarios,
        worst_makespan=stats.worst_makespan,
        fault_free_makespan=stats.fault_free_makespan or 0.0,
        failures=failures,
        frozen_violations=stats.frozen_violations(),
    )


def verify_tolerance(
    app: Application,
    arch: Architecture,
    mapping: CopyMapping,
    policies: PolicyAssignment,
    fault_model: FaultModel,
    schedule: ScheduleSet,
    transparency: Transparency | None = None,
    *,
    max_scenarios: int = 100_000,
) -> VerificationReport:
    """Simulate every fault scenario with at most ``k`` faults."""
    from repro.verify.core import ScenarioSweep

    total = count_fault_plans(app, policies, fault_model.k)
    if total > max_scenarios:
        raise ToleranceViolationError(
            f"{total} fault scenarios exceed the verification limit "
            f"{max_scenarios}; verify a smaller instance")
    sweep = ScenarioSweep(app, arch, mapping, policies, fault_model,
                          schedule)
    return _report(sweep.results(), transparency)


def verify_tolerance_sampled(
    app: Application,
    arch: Architecture,
    mapping: CopyMapping,
    policies: PolicyAssignment,
    fault_model: FaultModel,
    schedule: ScheduleSet,
    transparency: Transparency | None = None,
    *,
    samples: int = 200,
    seed: int = 0,
) -> VerificationReport:
    """Monte-Carlo tolerance check for instances whose scenario space
    is too large to enumerate (see
    :func:`repro.ftcpg.scenarios.count_fault_plans`).

    Simulates the fault-free scenario plus ``samples`` random fault
    plans within the budget, auditing the transparency contract on
    them exactly as :func:`verify_tolerance` does. A passing report is
    *evidence*, not a proof — use :func:`verify_tolerance` (or the
    sharded :func:`repro.verify.runner.run_verification`) whenever
    feasible.
    """
    from repro.runtime.faults import sample_fault_plans

    plans = sample_fault_plans(app, policies, fault_model.k, samples,
                               seed=seed)
    return _report(
        (simulate(app, arch, mapping, policies, fault_model, schedule,
                  plan) for plan in plans),
        transparency)
