"""Monte Carlo fault-injection campaigns (``repro campaign``).

The paper validates its estimation-driven synthesis only on small
exhaustive fault-scenario sets; this package scales that validation to
thousands of sampled scenarios per design:

* :mod:`repro.campaigns.sampling` — pluggable fault-plan sampling:
  exhaustive for small spaces, uniform and stratified-by-fault-count
  for large ones, all seeded via :func:`repro.utils.rng.derive_seed`;
* :mod:`repro.campaigns.stats` — streaming, exactly-mergeable
  aggregates per schedule (worst/mean finish, slack utilization,
  deadline-miss rate, estimate-gap histogram);
* :mod:`repro.campaigns.runner` — the campaign driver: plan chunks
  fan out as pure jobs through the PR 1 batch engine (process-pool
  parallelism, resumable JSONL checkpoints, byte-identical serial vs
  parallel reports).

See ``docs/campaigns.md`` for the full picture and
:mod:`repro.experiments.campaign` for the estimate-vs-simulated sweep
built on top.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "..workloads.presets": ("PRESET_WORKLOADS",),
    ".runner": (
        "CHUNK_RUNNER", "CampaignConfig", "CampaignReport", "campaign_jobs",
        "load_campaign_workload", "run_campaign", "run_campaign_chunk"),
    ".sampling": (
        "MAX_EXHAUSTIVE_PLANS", "SAMPLERS", "chunk_slice",
        "sample_campaign_plans"),
    ".stats": ("CampaignStats", "broadcast_allowance", "estimate_bound"),
})

__all__ = [
    "CHUNK_RUNNER",
    "MAX_EXHAUSTIVE_PLANS",
    "PRESET_WORKLOADS",
    "SAMPLERS",
    "CampaignConfig",
    "CampaignReport",
    "CampaignStats",
    "broadcast_allowance",
    "campaign_jobs",
    "chunk_slice",
    "estimate_bound",
    "load_campaign_workload",
    "run_campaign",
    "run_campaign_chunk",
    "sample_campaign_plans",
]
