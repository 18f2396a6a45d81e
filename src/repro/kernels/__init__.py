"""The batched scenario kernel and its counters (bit-identical).

The table-replay simulator of :mod:`repro.runtime.simulator` spends
most of its time rebuilding per-run context (ground-truth dictionaries)
and hashing composite keys. :mod:`repro.kernels.batch` lowers one
design's schedule into flat integer-indexed tables **once** and then
advances many fault plans through the table replay with delta ground
truth and a fault-signature index over the guards.

Bit-identity is the acceptance gate, as for the incremental
re-evaluation of :mod:`repro.eval`: the kernel performs the
*identical* IEEE arithmetic in the *identical* order as
:func:`~repro.runtime.simulator.simulate`, and falls back to it on any
plan the oracle would report as an error, so every simulation result,
report and cache key matches byte for byte. The kernel is the only
production path; the differential tests in ``tests/test_oracle.py``
call the oracle directly.

Integer tables use plain Python ``list``/``bytearray`` storage, so the
kernel has no optional dependency and every float it produces is a
plain Python ``float``. The slack-sharing estimator has a single
implementation, in :mod:`repro.schedule.estimation`.
"""

from __future__ import annotations

__all__ = ["KernelCounters", "counters"]


class KernelCounters:
    """Process-local kernel telemetry (diagnostics, not reports).

    No report carries these live counters; they exist for tests,
    interactive inspection and the ``perfbench`` trace.
    """

    __slots__ = ("schedules_compiled", "batched_scenarios",
                 "oracle_fallbacks")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.schedules_compiled = 0
        self.batched_scenarios = 0
        self.oracle_fallbacks = 0

    def snapshot(self) -> dict[str, int]:
        """Counter values as a plain dict."""
        return {
            "schedules_compiled": self.schedules_compiled,
            "batched_scenarios": self.batched_scenarios,
            "oracle_fallbacks": self.oracle_fallbacks,
        }


#: The process-wide counter instance.
counters = KernelCounters()
