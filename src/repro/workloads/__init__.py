"""Workloads: synthetic task graphs and the paper's examples.

* :mod:`repro.workloads.generator` — TGFF-style layered random DAGs
  with the size/connectivity/overhead ranges of the paper's
  experiments (20–100 processes, 2–6 nodes, k = 3–7);
* :mod:`repro.workloads.presets` — the hand-drawn examples of the
  paper's Figures 1–6 and an automotive cruise-controller case study
  in the style the authors use throughout this research line.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".generator": ("GeneratorConfig", "generate_workload"),
    ".presets": (
        "SIMPLE_PRESETS", "brake_by_wire", "bursty_heterogeneous",
        "cruise_controller", "deep_chain", "fig1_process", "fig3_example",
        "fig5_example", "wide_fork_join"),
})

__all__ = [
    "GeneratorConfig",
    "SIMPLE_PRESETS",
    "brake_by_wire",
    "bursty_heterogeneous",
    "cruise_controller",
    "deep_chain",
    "fig1_process",
    "fig3_example",
    "fig5_example",
    "generate_workload",
    "wide_fork_join",
]
