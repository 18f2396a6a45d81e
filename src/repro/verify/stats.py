"""Streaming, exactly-mergeable verification statistics.

A sharded verification sweep simulates scenario ranges in worker
processes, so its aggregates follow the same discipline as
:class:`repro.campaigns.stats.CampaignStats`: every chunk folds its
scenarios into one JSON-able :class:`VerificationStats` with O(1)
memory per scenario, and the parent merges chunk stats in job
submission order. Merging is exact — counts add, extrema combine with
min/max, means are kept as (sum, count), capped record lists keep the
first ``cap`` of the concatenation — so a chunked parallel sweep
reports byte-identical aggregates to a serial one.

Frozen-start bookkeeping is where verification differs from
campaigns: the transparency contract requires a frozen process or
message to start at the *same* time in every scenario in which it
fires. Each frozen activation therefore carries a
:class:`FrozenStartStat` — exact (unrounded) min/max plus a capped
sample of distinct starts. The violation decision compares the exact
spread ``max - min`` against ``TIME_EPS``; the old
``round(start, 6)`` bucketing could collapse a real > eps spread onto
two adjacent 1e-6 grid points and miss it (see
``tests/test_verify.py::TestFrozenStartEps``). Display clustering
uses :func:`repro.utils.mathutils.eps_representatives` — the same
anchored eps-run rule as the simulator's replay ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model.transparency import Transparency
from repro.runtime.simulator import SimulationResult
from repro.schedule.table import EntryKind
from repro.utils.mathutils import TIME_EPS, eps_representatives

#: Default ceiling on exhaustively simulated scenarios. Far above the
#: legacy serial verifier's 100k — sharding and the batched kernel are
#: what make Fig. 7/8-scale scenario sets tractable — but still a
#: guard against accidentally exponential instances.
DEFAULT_MAX_SCENARIOS = 2_000_000

#: Failure records kept per merged stats object (counts are exact,
#: the *records* are a bounded sample: first-cap of the scenario
#: order, which keeping first-cap of every concatenation preserves).
FAILURE_RECORD_CAP = 20

#: Distinct start samples kept per frozen activation (smallest
#: observed; the exact min/max are tracked separately and unbounded).
START_SAMPLE_CAP = 8


@dataclass
class FrozenStartStat:
    """Observed start times of one frozen activation.

    ``starts`` holds the smallest :data:`START_SAMPLE_CAP` distinct
    exact starts (min-k of a union is associative, so merging chunk
    records in any grouping yields the same sample); ``min_start`` /
    ``max_start`` are exact over *all* observations and alone decide
    the violation.
    """

    min_start: float
    max_start: float
    starts: tuple[float, ...]

    @classmethod
    def of(cls, start: float) -> "FrozenStartStat":
        """Record for a first observation."""
        return cls(min_start=start, max_start=start, starts=(start,))

    def observe(self, start: float) -> None:
        """Fold one more observed start."""
        self.min_start = min(self.min_start, start)
        self.max_start = max(self.max_start, start)
        if start not in self.starts:
            self.starts = tuple(sorted(
                (*self.starts, start)))[:START_SAMPLE_CAP]

    def merge(self, other: "FrozenStartStat") -> None:
        """Fold another record for the same activation (exact)."""
        self.min_start = min(self.min_start, other.min_start)
        self.max_start = max(self.max_start, other.max_start)
        self.starts = tuple(sorted(
            set(self.starts) | set(other.starts)))[:START_SAMPLE_CAP]

    @property
    def spread(self) -> float:
        """Exact spread of the observed starts."""
        return self.max_start - self.min_start

    @property
    def violated(self) -> bool:
        """True when the starts differ beyond the time tolerance."""
        return self.spread > TIME_EPS

    def shown_starts(self) -> list[float]:
        """Eps-distinct starts for messages (max always included)."""
        return eps_representatives((*self.starts, self.max_start))

    def to_jsonable(self) -> dict:
        """Plain-JSON form."""
        return {"min": self.min_start, "max": self.max_start,
                "starts": list(self.starts)}

    @classmethod
    def from_jsonable(cls, payload: dict) -> "FrozenStartStat":
        """Rebuild from the plain-JSON form."""
        return cls(min_start=float(payload["min"]),
                   max_start=float(payload["max"]),
                   starts=tuple(float(s) for s in payload["starts"]))


@dataclass
class FaultCountBin:
    """Makespan aggregates of all scenarios with one total fault count."""

    scenarios: int = 0
    failures: int = 0
    worst_makespan: float = 0.0
    makespan_sum: float = 0.0
    finished: int = 0

    @property
    def mean_makespan(self) -> float:
        """Mean finish over tolerated scenarios of this fault count."""
        if not self.finished:
            return 0.0
        return self.makespan_sum / self.finished

    def merge(self, other: "FaultCountBin") -> None:
        """Fold another bin of the same fault count (exact)."""
        self.scenarios += other.scenarios
        self.failures += other.failures
        self.worst_makespan = max(self.worst_makespan,
                                  other.worst_makespan)
        self.makespan_sum += other.makespan_sum
        self.finished += other.finished

    def to_jsonable(self) -> dict:
        """Plain-JSON form."""
        return {"scenarios": self.scenarios, "failures": self.failures,
                "worst_makespan": self.worst_makespan,
                "makespan_sum": self.makespan_sum,
                "finished": self.finished}

    @classmethod
    def from_jsonable(cls, payload: dict) -> "FaultCountBin":
        """Rebuild from the plain-JSON form."""
        return cls(scenarios=int(payload["scenarios"]),
                   failures=int(payload["failures"]),
                   worst_makespan=float(payload["worst_makespan"]),
                   makespan_sum=float(payload["makespan_sum"]),
                   finished=int(payload["finished"]))


FrozenKey = tuple[str, int]


@dataclass
class VerificationStats:
    """Mergeable aggregates over simulated fault scenarios."""

    scenarios: int = 0
    failures: int = 0
    finished: int = 0
    worst_makespan: float = 0.0
    makespan_sum: float = 0.0
    fault_free_makespan: float | None = None
    failure_records: list[dict] = field(default_factory=list)
    fault_hist: dict[int, FaultCountBin] = field(default_factory=dict)
    frozen_processes: dict[FrozenKey, FrozenStartStat] = field(
        default_factory=dict)
    frozen_messages: dict[FrozenKey, FrozenStartStat] = field(
        default_factory=dict)

    # -- observation ----------------------------------------------------------

    def observe(self, result: SimulationResult,
                transparency: Transparency | None = None) -> None:
        """Fold one simulated scenario into the aggregates.

        Matches the legacy exhaustive verifier: scenarios with
        invariant violations are counted as failures and excluded
        from the makespan statistics and the frozen-start records
        (their trace is not a run the contract speaks about).
        """
        self.scenarios += 1
        bin_ = self.fault_hist.setdefault(result.plan.total_faults,
                                          FaultCountBin())
        bin_.scenarios += 1
        if not result.ok:
            self.failures += 1
            bin_.failures += 1
            if len(self.failure_records) < FAILURE_RECORD_CAP:
                self.failure_records.append({
                    "plan": result.plan.describe(),
                    "errors": list(result.errors[:3]),
                })
            return
        makespan = result.makespan
        self.finished += 1
        bin_.finished += 1
        self.worst_makespan = max(self.worst_makespan, makespan)
        self.makespan_sum += makespan
        bin_.worst_makespan = max(bin_.worst_makespan, makespan)
        bin_.makespan_sum += makespan
        if result.plan.is_fault_free() \
                and self.fault_free_makespan is None:
            self.fault_free_makespan = makespan
        if transparency is None:
            return
        for entry in result.fired_entries:
            if entry.kind is EntryKind.ATTEMPT \
                    and entry.attempt.segment == 1 \
                    and entry.attempt.attempt == 1 \
                    and transparency.is_frozen_process(
                        entry.attempt.process):
                self._observe_frozen(
                    self.frozen_processes,
                    (entry.attempt.process, entry.attempt.copy),
                    entry.start)
            if entry.kind is EntryKind.MESSAGE \
                    and transparency.is_frozen_message(entry.message):
                self._observe_frozen(
                    self.frozen_messages,
                    (entry.message, entry.producer_copy or 0),
                    entry.start)

    @staticmethod
    def _observe_frozen(records: dict[FrozenKey, FrozenStartStat],
                        key: FrozenKey, start: float) -> None:
        record = records.get(key)
        if record is None:
            records[key] = FrozenStartStat.of(start)
        else:
            record.observe(start)

    # -- merging --------------------------------------------------------------

    def merge(self, other: "VerificationStats") -> None:
        """Fold another chunk's aggregates into this one (exact)."""
        self.scenarios += other.scenarios
        self.failures += other.failures
        self.finished += other.finished
        self.worst_makespan = max(self.worst_makespan,
                                  other.worst_makespan)
        self.makespan_sum += other.makespan_sum
        if self.fault_free_makespan is None:
            self.fault_free_makespan = other.fault_free_makespan
        self.failure_records = (self.failure_records
                                + other.failure_records
                                )[:FAILURE_RECORD_CAP]
        for count, bin_ in other.fault_hist.items():
            self.fault_hist.setdefault(count,
                                       FaultCountBin()).merge(bin_)
        for records, other_records in (
                (self.frozen_processes, other.frozen_processes),
                (self.frozen_messages, other.frozen_messages)):
            for key, record in other_records.items():
                mine = records.get(key)
                if mine is None:
                    records[key] = FrozenStartStat(
                        record.min_start, record.max_start,
                        record.starts)
                else:
                    mine.merge(record)

    # -- derived --------------------------------------------------------------

    @property
    def mean_makespan(self) -> float:
        """Mean finish over tolerated scenarios."""
        if not self.finished:
            return 0.0
        return self.makespan_sum / self.finished

    def frozen_violations(self) -> list[str]:
        """Transparency-contract violations, as report messages."""
        messages: list[str] = []
        for (process, copy), record in sorted(
                self.frozen_processes.items()):
            if record.violated:
                messages.append(
                    f"frozen process {process!r} (copy {copy}) started "
                    f"at {record.shown_starts()} across scenarios "
                    f"(spread {record.spread:.3g})")
        for (message, copy), record in sorted(
                self.frozen_messages.items()):
            if record.violated:
                messages.append(
                    f"frozen message {message!r} (copy {copy}) "
                    f"transmitted at {record.shown_starts()} across "
                    f"scenarios (spread {record.spread:.3g})")
        return messages

    @property
    def ok(self) -> bool:
        """All scenarios tolerated and the transparency contract held."""
        return self.failures == 0 and not self.frozen_violations()

    # -- transport ------------------------------------------------------------

    def to_jsonable(self) -> dict:
        """Plain-JSON form (chunk results, verification reports)."""
        return {
            "scenarios": self.scenarios,
            "failures": self.failures,
            "finished": self.finished,
            "worst_makespan": self.worst_makespan,
            "makespan_sum": self.makespan_sum,
            "fault_free_makespan": self.fault_free_makespan,
            "failure_records": [dict(r) for r in self.failure_records],
            "fault_hist": {
                str(count): bin_.to_jsonable()
                for count, bin_ in sorted(self.fault_hist.items())
            },
            "frozen_processes": self._frozen_jsonable(
                self.frozen_processes),
            "frozen_messages": self._frozen_jsonable(
                self.frozen_messages),
        }

    @staticmethod
    def _frozen_jsonable(records: dict[FrozenKey, FrozenStartStat],
                         ) -> list[dict]:
        return [
            {"name": name, "copy": copy, **record.to_jsonable()}
            for (name, copy), record in sorted(records.items())
        ]

    @classmethod
    def from_jsonable(cls, payload: dict) -> "VerificationStats":
        """Rebuild chunk aggregates from their JSON form."""
        stats = cls(
            scenarios=int(payload["scenarios"]),
            failures=int(payload["failures"]),
            finished=int(payload["finished"]),
            worst_makespan=float(payload["worst_makespan"]),
            makespan_sum=float(payload["makespan_sum"]),
            fault_free_makespan=(
                None if payload["fault_free_makespan"] is None
                else float(payload["fault_free_makespan"])),
            failure_records=[dict(r)
                             for r in payload["failure_records"]],
            fault_hist={
                int(count): FaultCountBin.from_jsonable(bin_)
                for count, bin_ in payload["fault_hist"].items()
            },
        )
        for target, name in ((stats.frozen_processes,
                              "frozen_processes"),
                             (stats.frozen_messages,
                              "frozen_messages")):
            for record in payload[name]:
                target[(str(record["name"]), int(record["copy"]))] = \
                    FrozenStartStat.from_jsonable(record)
        return stats
