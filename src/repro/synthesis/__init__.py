"""Fault-tolerant system design (paper §6).

Finding a system configuration ``ψ = <F, M, S>``:

1. fault-tolerance policy assignment ``F = <P, Q, R, X>`` for every
   process — :mod:`repro.synthesis.tabu` explores policy moves;
2. mapping ``M`` for every process and replica — same search;
3. the schedule set ``S`` — the conditional scheduler (exact, small
   instances) or the slack-sharing estimate (inside the search loop).

:mod:`repro.synthesis.strategies` packages the four approaches compared
in the paper's Fig. 7 — MXR (the proposed policy-assignment
optimization), MX (re-execution only), MR (replication only) and SFX
(fault-ignorant mapping with re-execution bolted on) — plus the MC/MCR
checkpointing variants used by Fig. 8, and
:mod:`repro.synthesis.checkpoint_opt` implements the global checkpoint
optimization of [15] against the per-process [27] baseline.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".initial": ("initial_mapping",),
    ".moves": ("PolicyMove", "RemapMove"),
    ".tabu": ("TabuSearch", "TabuSettings"),
    ".strategies": (
        "STRATEGIES", "StrategyResult", "nft_baseline", "synthesize"),
    ".checkpoint_opt": (
        "assign_local_optimal_checkpoints", "optimize_checkpoints_globally"),
    ".bus_opt": ("BusOptResult", "optimize_bus_access"),
})

__all__ = [
    "STRATEGIES",
    "BusOptResult",
    "PolicyMove",
    "optimize_bus_access",
    "RemapMove",
    "StrategyResult",
    "TabuSearch",
    "TabuSettings",
    "assign_local_optimal_checkpoints",
    "initial_mapping",
    "nft_baseline",
    "optimize_checkpoints_globally",
    "synthesize",
]
