"""Batch experiment engine: parallel, resumable sweeps of pure jobs.

The paper's evaluation figures are sweeps over grids of synthetic
applications; this package turns such sweeps into first-class batch
runs:

* :mod:`repro.engine.jobs` — the unit of work: a picklable, pure
  :class:`~repro.engine.jobs.BatchJob` referencing its runner by
  import path;
* :mod:`repro.engine.grid` — cartesian axis expansion into jobs with
  stable ids;
* :mod:`repro.engine.runner` — the :class:`~repro.engine.runner.
  BatchEngine`: pluggable execution backends, JSONL checkpointing of
  completed cells, resume, and deterministic JSON/CSV reports;
* :mod:`repro.engine.backends` — where jobs execute: ``serial``
  (in-process), ``process`` (single-host pool) and ``workdir``
  (multi-host work stealing over a shared directory,
  :mod:`repro.engine.workdir`); all three produce byte-identical
  reports;
* :mod:`repro.engine.journal` — torn-tail-safe JSONL journals shared
  by the checkpoint file and the workdir result files.

The engine knows nothing about evaluation: sweep cells share one
:class:`~repro.eval.EvaluatorPool` each, from the evaluation layer
(:mod:`repro.eval`).

The Fig. 7 / Fig. 8 harnesses of :mod:`repro.experiments` route
through this engine (``repro batch`` on the command line).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".backends": (
        "BACKENDS", "ExecutorBackend", "ProcessBackend", "SerialBackend",
        "WorkdirBackend", "create_backend"),
    ".grid": ("grid_jobs",),
    ".jobs": ("BatchJob", "resolve_runner", "run_job"),
    ".runner": (
        "BatchEngine", "BatchReport", "EngineConfig", "JobOutcome", "run_batch"),
    ".workdir": ("Workdir", "WorkerSummary", "work"),
})

__all__ = [
    "BACKENDS",
    "BatchEngine",
    "BatchJob",
    "BatchReport",
    "EngineConfig",
    "ExecutorBackend",
    "JobOutcome",
    "ProcessBackend",
    "SerialBackend",
    "Workdir",
    "WorkdirBackend",
    "WorkerSummary",
    "create_backend",
    "grid_jobs",
    "resolve_runner",
    "run_batch",
    "run_job",
    "work",
]
