"""Experiment harnesses regenerating the paper's evaluation figures.

* :mod:`repro.experiments.fig7` — efficiency of fault tolerance policy
  assignment: avg % deviation of the FTO of MR / SFX / MX from the MXR
  baseline over application size (paper Fig. 7);
* :mod:`repro.experiments.fig8` — efficiency of checkpoint
  optimization: avg % deviation of the FTO of the global checkpoint
  optimization from the per-process [27] baseline (paper Fig. 8);
* :mod:`repro.experiments.campaign` — beyond the paper: estimate vs
  exact tables vs Monte Carlo simulated execution across the workload
  grid (the validation loop the paper leaves open);
* :mod:`repro.experiments.pareto` — beyond the paper: the
  transparency/performance Pareto sweep, one epsilon-Pareto frontier
  per workload via the design-space explorer (:mod:`repro.dse`).

All four run through ``repro batch --experiment
{fig7,fig8,campaign-sweep,pareto}``; the Fig. 7/8 sweeps are also
wrapped by the pytest-benchmark harnesses in ``benchmarks/``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".campaign": ("CampaignRow", "CampaignSweepConfig", "run_campaign_sweep"),
    ".fig7": ("Fig7Config", "Fig7Row", "run_fig7"),
    ".fig8": ("Fig8Config", "Fig8Row", "run_fig8"),
    ".pareto": ("ParetoSweepConfig", "run_pareto_sweep"),
})

__all__ = [
    "CampaignRow",
    "CampaignSweepConfig",
    "Fig7Config",
    "Fig7Row",
    "Fig8Config",
    "Fig8Row",
    "ParetoSweepConfig",
    "run_campaign_sweep",
    "run_fig7",
    "run_fig8",
    "run_pareto_sweep",
]
