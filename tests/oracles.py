"""Direct handles on the pure-Python estimator oracle for the tests.

Production estimation always runs the array-compiled kernel
(:func:`repro.kernels.estimator.kernel_compute`, behind
:meth:`~repro.schedule.estimation.EstimatorState.compute`); the
pure-Python scheduler it must match bit for bit stays in
:mod:`repro.schedule.estimation` as ``_EstimationRun``, which is also
``reevaluate``'s full path. The differential tests reach it here. The
simulation oracle needs no helper: tests call
:func:`repro.runtime.simulator.simulate` directly.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.model import Application, Architecture, FaultModel
from repro.policies import PolicyAssignment
from repro.schedule import CopyMapping
from repro.schedule.estimation import EstimatorState, _EstimationRun
from repro.schedule.priorities import partial_critical_path_priorities


def oracle_compute(
    app: Application,
    arch: Architecture,
    mapping: CopyMapping,
    policies: PolicyAssignment,
    fault_model: FaultModel,
    *,
    priorities: Mapping[str, float] | None = None,
    bus_contention: bool = True,
    slack_sharing: str = "max",
) -> EstimatorState:
    """``EstimatorState.compute`` through the pure-Python oracle: one
    fresh ``_EstimationRun``, with partial-critical-path priorities
    when none are given."""
    if priorities is None:
        priorities = partial_critical_path_priorities(app, arch)
    run = _EstimationRun(app, arch, mapping, policies, fault_model.k,
                         dict(priorities), bus_contention, slack_sharing)
    return run.execute()
