"""Scalable verification of synthesized schedule tables.

The proof side of the synthesis flow: where campaigns *sample* fault
scenarios, this package simulates **all** of them — sharded through
the batch engine in contiguous windows of the fault-plan enumeration,
each replayed by the batched scenario kernel — and certifies the
paper's central claim that the tables tolerate any ``k`` transient
faults under the chosen transparency contract.
:mod:`repro.runtime.verify` remains as a thin serial shim over this
package.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core": ("ScenarioSweep", "chunk_bounds"),
    ".runner": (
        "VerifyConfig", "VerifyReport", "load_verify_workload",
        "merge_verify_cells", "run_verification", "run_verify_chunk",
        "verify_jobs"),
    ".stats": (
        "DEFAULT_MAX_SCENARIOS", "FaultCountBin", "FrozenStartStat",
        "VerificationStats"),
})

__all__ = [
    "DEFAULT_MAX_SCENARIOS",
    "FaultCountBin",
    "FrozenStartStat",
    "ScenarioSweep",
    "VerificationStats",
    "VerifyConfig",
    "VerifyReport",
    "chunk_bounds",
    "load_verify_workload",
    "merge_verify_cells",
    "run_verification",
    "run_verify_chunk",
    "verify_jobs",
]
