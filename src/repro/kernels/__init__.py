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
pure-Python oracle, so every estimate, simulation result, report and
cache key matches byte for byte. ``REPRO_KERNELS=0``
forces the oracle everywhere — the escape hatch the differential
tests in ``tests/test_oracle.py`` compare against.

Integer and float tables use plain Python ``list``/``array``/
``bytearray`` storage, so the kernels have no optional dependency and
every float they produce is a plain Python ``float``.
"""

from __future__ import annotations

import os

__all__ = [
    "KERNELS_ENV",
    "KernelCounters",
    "counters",
    "kernels_enabled",
    "kernels_info",
]

#: Environment variable of the escape hatch (``0`` forces the oracle).
KERNELS_ENV = "REPRO_KERNELS"


def kernels_enabled() -> bool:
    """Process-wide switch for the array-compiled kernels.

    ``REPRO_KERNELS=0`` (or ``false``/``off``/``no``) forces the
    pure-Python oracle everywhere — the mode the identity tests and
    benchmark baselines compare against. Read at every decision point,
    so tests can flip it per case and worker processes inherit the
    choice through their environment.
    """
    value = os.environ.get(KERNELS_ENV, "1")
    return value.strip().lower() not in ("0", "false", "off", "no")


def kernels_info(*, compiled_tables: int,
                 batched_scenarios: int) -> dict:
    """The ``kernels`` telemetry block reports embed.

    ``compiled_tables`` and ``batched_scenarios`` are deterministic
    functions of the workload shape (how many table sets the run
    implies and how many scenarios are batch-eligible), **not** live
    counters — so a report differs between kernels-on and
    ``REPRO_KERNELS=0`` runs in exactly one value: ``enabled``. The
    differential tests normalize that single key and assert the rest
    byte-identical.
    """
    return {
        "enabled": kernels_enabled(),
        "compiled_tables": compiled_tables,
        "batched_scenarios": batched_scenarios,
    }


class KernelCounters:
    """Process-local kernel telemetry (diagnostics, not reports).

    Reports derive their ``kernels`` block from deterministic workload
    shape (see ``docs/kernels.md``) so kernels-on and kernels-off runs
    stay byte-identical; these live counters exist for tests and
    interactive inspection only.
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
