"""Scheduling (paper §5 and §6).

Two schedulers share the same models:

* :mod:`repro.schedule.estimation` — fault-tolerant schedule *length
  estimation* with recovery-slack sharing; the cheap cost function
  driving design optimization, as in [13]. At ``k = 0`` it is the
  fault-free list scheduler behind the non-fault-tolerant baseline
  length of the FTO metric (paper §6).
* :mod:`repro.schedule.conditional` — the exact quasi-static
  conditional scheduler; explores every fault context and emits the
  conditional schedule tables of paper §5.2 (Fig. 6).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".mapping": ("CopyMapping",),
    ".priorities": ("partial_critical_path_priorities",),
    ".estimation": (
        "EstimatorState", "FtEstimate", "estimate_ft_schedule",
        "solution_fingerprint"),
    ".conditional": ("ConditionalScheduler", "synthesize_schedule"),
    ".table": ("EntryKind", "ScheduleSet", "TableEntry"),
    ".render": ("render_node_table", "render_schedule_set"),
    ".analysis": ("fault_tolerance_overhead",),
    ".metrics": (
        "FtMemoryOverhead", "NodeTableSize", "ScheduleMetrics",
        "ft_memory_overhead", "process_state_bytes", "schedule_metrics",
        "transparency_degree"),
    ".serialization": (
        "dump_schedule", "load_schedule", "schedule_from_dict",
        "schedule_to_dict"),
    ".validation": ("assert_valid_schedule", "validate_schedule"),
})

__all__ = [
    "ConditionalScheduler",
    "CopyMapping",
    "EntryKind",
    "EstimatorState",
    "FtEstimate",
    "FtMemoryOverhead",
    "solution_fingerprint",
    "NodeTableSize",
    "ScheduleMetrics",
    "ScheduleSet",
    "TableEntry",
    "assert_valid_schedule",
    "dump_schedule",
    "load_schedule",
    "schedule_from_dict",
    "schedule_metrics",
    "schedule_to_dict",
    "validate_schedule",
    "estimate_ft_schedule",
    "fault_tolerance_overhead",
    "ft_memory_overhead",
    "process_state_bytes",
    "transparency_degree",
    "partial_critical_path_priorities",
    "render_node_table",
    "render_schedule_set",
    "synthesize_schedule",
]
