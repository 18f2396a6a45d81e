"""repro — Synthesis of Fault-Tolerant Embedded Systems.

A from-scratch Python reproduction of

    P. Eles, V. Izosimov, P. Pop, Z. Peng,
    "Synthesis of Fault-Tolerant Embedded Systems",
    DATE 2008, pp. 1117-1122. DOI: 10.1109/DATE.2008.4484825

The library covers the paper's complete flow: application/architecture
models with a TTP-style TDMA bus, the ``k``-transient-fault model,
checkpointing/re-execution/replication policies, the fault-tolerant
conditional process graph (FT-CPG), exact quasi-static conditional
scheduling into per-node schedule tables with transparency (frozen)
support, recovery-slack-sharing schedule length estimation (with a
unified incremental evaluation core, :mod:`repro.eval`), tabu-search
mapping and policy assignment (MXR/MX/MR/SFX), global checkpoint-count
optimization, a discrete-event distributed runtime simulator, and an
exhaustive fault-scenario verifier. See DESIGN.md for the system map
and EXPERIMENTS.md for the paper-vs-measured record.

Quick start::

    from repro.model import (Application, Architecture, Process,
                             Message, FaultModel, Transparency)
    from repro.policies import ProcessPolicy, PolicyAssignment
    from repro.schedule import CopyMapping, synthesize_schedule
    from repro.runtime import verify_tolerance
    from repro.synthesis import synthesize
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".errors": (
        "ContextExplosionError", "MappingError", "ModelError", "PolicyError",
        "ReproError", "SchedulingError", "SimulationError", "SynthesisError",
        "ToleranceViolationError", "ValidationError"),
    ".model": (
        "Application", "Architecture", "BusSpec", "FaultModel", "Message",
        "Node", "Process", "Transparency", "merge_applications",
        "validate_model"),
    ".policies": (
        "CopyExecution", "CopyPlan", "PolicyAssignment", "PolicyKind",
        "ProcessPolicy", "local_optimal_checkpoints"),
    ".ftcpg": (
        "AttemptId", "ConditionLiteral", "FaultPlan", "Ftcpg", "Guard",
        "build_ftcpg", "count_fault_plans", "iter_fault_plans"),
    ".schedule": (
        "CopyMapping", "FtEstimate", "ScheduleSet", "estimate_ft_schedule",
        "fault_tolerance_overhead", "render_schedule_set",
        "synthesize_schedule"),
    ".runtime": ("simulate", "verify_tolerance"),
    ".synthesis": (
        "StrategyResult", "TabuSettings", "nft_baseline", "synthesize"),
    "._version": ("__version__",),
    ".eval": (
        "DesignEvaluation", "Evaluator", "EvaluatorPool", "ScheduleProblem"),
})

__all__ = [
    "Application",
    "Architecture",
    "AttemptId",
    "BusSpec",
    "ConditionLiteral",
    "ContextExplosionError",
    "CopyExecution",
    "CopyMapping",
    "CopyPlan",
    "DesignEvaluation",
    "Evaluator",
    "EvaluatorPool",
    "FaultModel",
    "FaultPlan",
    "FtEstimate",
    "Ftcpg",
    "Guard",
    "MappingError",
    "Message",
    "ModelError",
    "Node",
    "PolicyAssignment",
    "PolicyError",
    "PolicyKind",
    "Process",
    "ProcessPolicy",
    "ReproError",
    "ScheduleProblem",
    "ScheduleSet",
    "SchedulingError",
    "SimulationError",
    "StrategyResult",
    "SynthesisError",
    "TabuSettings",
    "ToleranceViolationError",
    "Transparency",
    "ValidationError",
    "build_ftcpg",
    "count_fault_plans",
    "estimate_ft_schedule",
    "fault_tolerance_overhead",
    "iter_fault_plans",
    "local_optimal_checkpoints",
    "merge_applications",
    "nft_baseline",
    "render_schedule_set",
    "simulate",
    "synthesize",
    "synthesize_schedule",
    "validate_model",
    "verify_tolerance",
]
