"""Array-compiled estimation/simulation kernels (bit-identical).

The two hottest inner loops of the reproduction — the slack-sharing
list scheduler in :mod:`repro.schedule.estimation` and the table-replay
simulator in :mod:`repro.runtime.simulator` — spend most of their time
rebuilding per-run context (structure tables, copy costs, ground-truth
dictionaries) and hashing composite keys. This package lowers one
problem (or one design's schedule) into flat integer-indexed tables
**once** and then runs index-based kernels over them:

* :mod:`repro.kernels.tables` — the per-problem "compile" step:
  process indices, successor/input CSR adjacency, per-copy cost
  vectors and the shared TDMA/send-memo context, cached per
  ``(app, arch, k, priorities)``;
* :mod:`repro.kernels.estimator` — the estimator's schedule loop and
  slack pools rewritten over those tables, materializing a genuine
  :class:`~repro.schedule.estimation.EstimatorState`;
* :mod:`repro.kernels.batch` — a batched scenario kernel advancing
  many fault plans of one design through the table replay with
  delta ground truth and a fault-signature index over the guards.

Bit-identity is the acceptance gate, as for the incremental
re-evaluation of :mod:`repro.eval`: the kernels perform the
*identical* IEEE arithmetic in the *identical* order as the
pure-Python oracles, so every estimate, simulation result, report and
cache key matches byte for byte. The kernels are the only production
path; the differential tests in ``tests/test_oracle.py`` call the
oracles directly.

Integer and float tables use plain Python ``list``/``array``/
``bytearray`` storage, so the kernels have no optional dependency and
every float they produce is a plain Python ``float``.
"""

from __future__ import annotations

__all__ = ["KernelCounters", "counters"]


class KernelCounters:
    """Process-local kernel telemetry (diagnostics, not reports).

    No report carries these live counters; they exist for tests,
    interactive inspection and the ``perfbench`` trace.
    """

    __slots__ = ("problems_compiled", "schedules_compiled",
                 "estimator_runs", "batched_scenarios",
                 "oracle_fallbacks")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.problems_compiled = 0
        self.schedules_compiled = 0
        self.estimator_runs = 0
        self.batched_scenarios = 0
        self.oracle_fallbacks = 0

    def snapshot(self) -> dict[str, int]:
        """Counter values as a plain dict."""
        return {
            "problems_compiled": self.problems_compiled,
            "schedules_compiled": self.schedules_compiled,
            "estimator_runs": self.estimator_runs,
            "batched_scenarios": self.batched_scenarios,
            "oracle_fallbacks": self.oracle_fallbacks,
        }


#: The process-wide counter instance.
counters = KernelCounters()
