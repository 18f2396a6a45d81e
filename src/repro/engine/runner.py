"""The batch engine: fan jobs out, checkpoint, stream results.

Execution model
---------------

* every :class:`~repro.engine.jobs.BatchJob` is independent and pure,
  so the engine may hand them to any :mod:`executor backend
  <repro.engine.backends>` — in-process ``serial``, single-host
  ``process`` pool, or multi-host ``workdir`` work stealing — the
  report is assembled in job submission order either way, which makes
  every backend's JSON/CSV output byte-identical;
* each completed cell is appended to a JSONL checkpoint file the
  moment it finishes (flushed per line, torn-tail-safe via
  :mod:`repro.engine.journal`), so an interrupted sweep loses at most
  the in-flight cells;
* a resumed run loads the checkpoint (and, for the workdir backend,
  the workdir's own result journals), verifies each recorded cell
  still matches the job's parameters (a changed configuration
  invalidates the record, never silently reuses it) and only executes
  the remainder.

Timing is kept out of the result files on purpose: wall-clock numbers
live in the :class:`BatchReport` (and the checkpoint lines) where they
cannot break output reproducibility.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Sequence

from repro.engine import journal
from repro.engine.backends import BACKENDS, create_backend
from repro.engine.jobs import BatchJob
from repro.engine.workdir import (
    DEFAULT_LEASE_SIZE,
    DEFAULT_LEASE_TIMEOUT,
)

#: Called once per cell as it completes (or is restored), for live
#: progress reporting. Parallel cells report in completion order.
ProgressCallback = Callable[["JobOutcome"], None]


@dataclass(frozen=True)
class EngineConfig:
    """How one batch run executes.

    ``backend`` selects the executor explicitly; when ``None`` the
    engine auto-selects — ``workdir`` when a workdir is given,
    ``process`` for ``workers > 1``, ``serial`` otherwise. Invalid
    combinations fail at construction time, not mid-sweep.
    """

    #: ``<= 1`` runs serially in-process; ``N > 1`` uses a process
    #: pool (ignored by the serial and workdir backends).
    workers: int = 1
    #: JSONL file recording completed cells (None disables). Mutually
    #: exclusive with ``workdir`` — the workdir *is* the checkpoint.
    checkpoint_path: str | Path | None = None
    #: Load the checkpoint and skip already-completed cells.
    resume: bool = True
    #: Explicit backend name (one of :data:`~repro.engine.backends.
    #: BACKENDS`) or None for auto-selection.
    backend: str | None = None
    #: Shared directory of the workdir backend (its job list, chunk
    #: leases and per-worker result journals).
    workdir: str | Path | None = None
    #: Jobs per workdir lease (the work-stealing granularity).
    lease_size: int = DEFAULT_LEASE_SIZE
    #: Reclaim a workdir lease whose heartbeat is older than this;
    #: must exceed the longest single job.
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT
    #: Stable workdir worker identity (None: host-pid-random).
    worker_id: str | None = None

    def __post_init__(self) -> None:
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose one of "
                f"{', '.join(BACKENDS)}")
        if self.lease_size < 1:
            raise ValueError(
                f"lease_size must be >= 1, got {self.lease_size}")
        if self.lease_timeout <= 0:
            raise ValueError(
                f"lease_timeout must be > 0, got {self.lease_timeout}")
        if self.backend_name == "workdir":
            if self.workdir is None:
                raise ValueError(
                    "the workdir backend needs a shared directory: "
                    "set workdir=... (it holds the job list, leases "
                    "and result journals)")
            if self.checkpoint_path is not None:
                raise ValueError(
                    "checkpoint_path conflicts with the workdir "
                    "backend: the workdir is the checkpoint (results "
                    "live in <workdir>/results)")
        elif self.workdir is not None:
            raise ValueError(
                f"workdir is only used by the workdir backend, not "
                f"{self.backend_name!r}")

    @property
    def backend_name(self) -> str:
        """The resolved backend name (auto-selected when unset)."""
        if self.backend is not None:
            return self.backend
        if self.workdir is not None:
            return "workdir"
        return "process" if self.workers > 1 else "serial"


@dataclass
class JobOutcome:
    """One executed (or resumed) cell."""

    job: BatchJob
    result: dict
    elapsed: float
    from_checkpoint: bool = False


@dataclass
class BatchReport:
    """All outcomes of one engine run, in job submission order."""

    outcomes: list[JobOutcome] = field(default_factory=list)
    wall_time: float = 0.0
    #: Caller-attached summary payload (e.g. merged cache statistics)
    #: included in the JSON export when non-empty. Must itself be
    #: deterministic for the export to stay byte-stable.
    extra_info: dict = field(default_factory=dict)

    @property
    def executed(self) -> int:
        """Cells computed in this run."""
        return sum(1 for o in self.outcomes if not o.from_checkpoint)

    @property
    def resumed(self) -> int:
        """Cells restored from the checkpoint file."""
        return sum(1 for o in self.outcomes if o.from_checkpoint)

    def results(self) -> list[dict]:
        """The per-cell result dicts, in job order."""
        return [outcome.result for outcome in self.outcomes]

    def result_of(self, job_id: str) -> dict:
        """The result of one cell by id."""
        for outcome in self.outcomes:
            if outcome.job.job_id == job_id:
                return outcome.result
        raise KeyError(f"no outcome for job {job_id!r}")

    # -- deterministic exports ------------------------------------------------

    def to_jsonable(self) -> dict:
        """Timing-free report payload (stable across runs)."""
        payload = {
            "jobs": [
                {
                    "job_id": outcome.job.job_id,
                    "runner": outcome.job.runner,
                    "params": outcome.job.params_dict(),
                    "result": outcome.result,
                }
                for outcome in self.outcomes
            ],
        }
        if self.extra_info:
            payload["extra_info"] = dict(self.extra_info)
        return payload

    def to_json(self) -> str:
        """Canonical JSON text of the report."""
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)

    def write_json(self, path: str | Path) -> None:
        """Write the canonical JSON report (atomic replace)."""
        journal.write_atomic_text(path, self.to_json() + "\n")

    def write_csv(self, path: str | Path) -> None:
        """Write one CSV row per cell (nested keys dotted, sorted).

        Rendered in memory and atomically replaced, so a crash
        mid-export never leaves a torn CSV next to a valid JSON
        report.
        """
        rows = [_flatten(outcome.result) for outcome in self.outcomes]
        columns = sorted({key for row in rows for key in row})
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["job_id", *columns])
        for outcome, row in zip(self.outcomes, rows):
            writer.writerow(
                [outcome.job.job_id]
                + [_cell(row.get(column)) for column in columns])
        journal.write_atomic_text(path, buffer.getvalue())


def _flatten(result: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in result.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat


def _cell(value: object) -> str:
    if value is None:
        return ""
    return str(value)


class BatchEngine:
    """Runs a list of jobs under one :class:`EngineConfig`."""

    def __init__(self, config: EngineConfig | None = None) -> None:
        self._config = config or EngineConfig()

    @property
    def config(self) -> EngineConfig:
        """The engine configuration."""
        return self._config

    def run(self, jobs: Sequence[BatchJob], *,
            progress: ProgressCallback | None = None) -> BatchReport:
        """Execute (or resume) all jobs and return the ordered report.

        ``progress`` is invoked live — restored cells first (in job
        order), then executed cells as each one finishes — so long
        sweeps can report while running.
        """
        seen: set[str] = set()
        for job in jobs:
            if job.job_id in seen:
                raise ValueError(f"duplicate job id {job.job_id!r}")
            seen.add(job.job_id)

        started = time.perf_counter()
        backend = create_backend(self._config)
        if self._config.checkpoint_path is not None:
            # Fail on an unwritable location before any cell runs,
            # not after the first one finishes.
            Path(self._config.checkpoint_path).parent.mkdir(
                parents=True, exist_ok=True)
            journal.repair_torn_tail(self._config.checkpoint_path)
        restored = self._load_checkpoint(jobs)
        restored.update(backend.restore(jobs))
        if progress is not None:
            for job in jobs:
                if job.job_id in restored:
                    result, elapsed = restored[job.job_id]
                    progress(JobOutcome(job, result, elapsed,
                                        from_checkpoint=True))
        pending = [job for job in jobs if job.job_id not in restored]

        executed: dict[str, tuple[dict, float]] = {}
        if pending:
            backend.execute(
                pending,
                lambda job, result, elapsed: self._record(
                    job, result, elapsed, executed, progress))

        outcomes: list[JobOutcome] = []
        for job in jobs:
            if job.job_id in restored:
                result, elapsed = restored[job.job_id]
                outcomes.append(JobOutcome(job, result, elapsed,
                                           from_checkpoint=True))
            else:
                result, elapsed = executed[job.job_id]
                outcomes.append(JobOutcome(job, result, elapsed))
        return BatchReport(outcomes=outcomes,
                           wall_time=time.perf_counter() - started)

    # -- execution paths ------------------------------------------------------

    def _record(self, job: BatchJob, result: dict, elapsed: float,
                executed: dict[str, tuple[dict, float]],
                progress: ProgressCallback | None) -> None:
        executed[job.job_id] = (result, elapsed)
        self._append_checkpoint(job, result, elapsed)
        if progress is not None:
            progress(JobOutcome(job, result, elapsed))

    # -- checkpointing --------------------------------------------------------

    def _load_checkpoint(self, jobs: Sequence[BatchJob],
                         ) -> dict[str, tuple[dict, float]]:
        path = self._config.checkpoint_path
        if path is None or not self._config.resume:
            return {}
        params_by_id = {job.job_id: job.params_dict() for job in jobs}
        return journal.load_cells(path, params_by_id)

    def _append_checkpoint(self, job: BatchJob, result: dict,
                           elapsed: float) -> None:
        path = self._config.checkpoint_path
        if path is None:
            return
        journal.append_record(path, {
            "job_id": job.job_id,
            "params": job.params_dict(),
            "result": result,
            "elapsed": elapsed,
        })


def run_batch(jobs: Sequence[BatchJob],
              config: EngineConfig | None = None, *,
              progress: ProgressCallback | None = None) -> BatchReport:
    """Convenience wrapper: run jobs under a config."""
    return BatchEngine(config).run(jobs, progress=progress)
