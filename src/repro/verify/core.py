"""The scenario sweep: exhaustive simulation of one scenario window.

:class:`ScenarioSweep` is the one entry point every exhaustive caller
uses — ``repro verify`` chunks, ``dse --verify-frontier``, campaign
certification and :func:`repro.runtime.verify_tolerance`. It is a thin
façade over a contiguous window of the
:func:`~repro.ftcpg.scenarios.iter_fault_plans` order:

* the window's plans come from
  :meth:`~repro.ftcpg.scenarios.PlanEnumeration.plans`, which skips
  whole enumeration subtrees outside the window without building
  their plans;
* each plan replays through the batched scenario kernel
  (:class:`~repro.kernels.batch.BatchedSimulator`, which falls back to
  the oracle :func:`~repro.runtime.simulator.simulate` per plan for
  anything it cannot prove clean).

The **bit-identity invariant** holds: for every plan the sweep yields
exactly the :class:`SimulationResult` that ``simulate(...)`` returns
(pinned by ``tests/test_verify_engine.py`` and
``tests/test_oracle.py``).

Sharding slices the scenario order into **contiguous** windows
(:func:`chunk_bounds`) — not the stride slices campaigns use: a
contiguous window is a run of enumeration subtrees, so a shard builds
only the plans it simulates, while a stride slice would have to
enumerate every plan to pick out its own.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.ftcpg.scenarios import plan_enumeration
from repro.kernels.batch import BatchedSimulator
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.policies.types import PolicyAssignment
from repro.runtime.simulator import SimulationResult
from repro.runtime.simulator import simulate  # noqa: F401 (perfbench patch)
from repro.schedule.mapping import CopyMapping
from repro.schedule.table import ScheduleSet


def chunk_bounds(total: int, chunk: int, chunks: int,
                 ) -> tuple[int, int]:
    """The contiguous scenario window ``[start, stop)`` of one shard.

    The windows partition ``range(total)`` exactly and differ in size
    by at most one. Contiguous on purpose — a contiguous window lets
    the enumeration skip every subtree outside it; the stride slices
    campaigns use (:func:`repro.campaigns.sampling.chunk_slice`) would
    make every shard enumerate the whole scenario set.
    """
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    if not 0 <= chunk < chunks:
        raise ValueError(f"chunk must be in [0, {chunks}), got {chunk}")
    return chunk * total // chunks, (chunk + 1) * total // chunks


class ScenarioSweep:
    """Exhaustive scenario simulation over one design's schedule.

    Yields, for a contiguous range of the
    :func:`~repro.ftcpg.scenarios.iter_fault_plans` order, the exact
    :class:`SimulationResult` of every scenario. The batched kernel is
    compiled on first use and shared by every later window, unless the
    caller hands in the design's compiled ``kernel``.
    """

    def __init__(self, app: Application, arch: Architecture,
                 mapping: CopyMapping, policies: PolicyAssignment,
                 fault_model: FaultModel, schedule: ScheduleSet, *,
                 kernel: BatchedSimulator | None = None) -> None:
        self._design = (app, arch, mapping, policies, fault_model,
                        schedule)
        self._enum = plan_enumeration(app, policies, fault_model.k)
        self._batched = kernel

    @property
    def total(self) -> int:
        """Number of scenarios (== ``count_fault_plans``)."""
        return self._enum.total

    def results(self, start: int = 0, stop: int | None = None,
                ) -> Iterator[SimulationResult]:
        """Simulate scenarios ``start .. stop-1`` of the enumeration."""
        if self._batched is None:
            self._batched = BatchedSimulator(*self._design)
        for plan in self._enum.plans(start, stop):
            yield self._batched.simulate_plan(plan)
