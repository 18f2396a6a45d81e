"""Policy value objects: ``F = <P, Q, R, X>`` (paper §4).

Conventions used throughout the library:

* A *copy* is one placed instance of a process. Copy ``0`` is the
  original; copies ``1..Q`` are the replicas of the paper's ``VR``.
* ``CopyPlan.checkpoints == 0`` means **pure re-execution**: one
  execution segment of the full WCET, recovery restores the initial
  inputs (cost μ) and no checkpointing overhead χ is paid. The paper
  treats re-execution as rollback recovery with a single checkpoint;
  we additionally keep the χ-free variant because the policy-assignment
  experiments of [13] (paper Fig. 7) use plain re-execution.
* ``CopyPlan.checkpoints == n >= 1`` means equidistant checkpointing
  with ``n`` checkpoints / ``n`` execution segments (paper Fig. 1b: two
  checkpoints produce two segments; the first checkpoint stores the
  initial state).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Iterable, Mapping

from repro.errors import PolicyError
from repro.model.application import Application


class PolicyKind(enum.Enum):
    """The ``P`` function of paper §4 (plus the k=0 degenerate case)."""

    NONE = "none"
    CHECKPOINTING = "checkpointing"
    REPLICATION = "replication"
    REPLICATION_AND_CHECKPOINTING = "replication+checkpointing"


@dataclass(frozen=True)
class CopyPlan:
    """Recovery plan of one process copy.

    Parameters
    ----------
    recoveries:
        ``R`` — how many faults this copy can recover from. Once
        exceeded, the copy fails silently (relevant for replicas).
    checkpoints:
        ``X`` — number of equidistant checkpoints; ``0`` selects pure
        re-execution (see module docstring).
    """

    recoveries: int = 0
    checkpoints: int = 0

    def __post_init__(self) -> None:
        if self.recoveries < 0:
            raise PolicyError(f"recoveries must be >= 0, got {self.recoveries}")
        if self.checkpoints < 0:
            raise PolicyError(f"checkpoints must be >= 0, got {self.checkpoints}")

    @property
    def segments(self) -> int:
        """Number of execution segments (>= 1)."""
        return max(1, self.checkpoints)

    @property
    def uses_checkpointing(self) -> bool:
        """True when χ-cost checkpoints are saved."""
        return self.checkpoints >= 1

    def with_checkpoints(self, checkpoints: int) -> "CopyPlan":
        """Copy of this plan with a different checkpoint count."""
        return CopyPlan(recoveries=self.recoveries, checkpoints=checkpoints)


@dataclass(frozen=True)
class ProcessPolicy:
    """Fault-tolerance policy of one process: a tuple of copy plans."""

    copies: tuple[CopyPlan, ...]

    def __post_init__(self) -> None:
        if not self.copies:
            raise PolicyError("a policy needs at least one copy")

    # -- constructors mirroring the paper's P values -------------------------

    @classmethod
    def none(cls) -> "ProcessPolicy":
        """No fault tolerance (k = 0 baselines)."""
        return cls((CopyPlan(0, 0),))

    @classmethod
    def re_execution(cls, k: int) -> "ProcessPolicy":
        """Pure re-execution: one copy, ``k`` recoveries, no χ."""
        return cls((CopyPlan(recoveries=k, checkpoints=0),))

    @classmethod
    def checkpointing(cls, k: int, checkpoints: int) -> "ProcessPolicy":
        """Rollback recovery with ``checkpoints`` equidistant checkpoints."""
        if checkpoints < 1:
            raise PolicyError("checkpointing needs at least one checkpoint")
        return cls((CopyPlan(recoveries=k, checkpoints=checkpoints),))

    @classmethod
    def replication(cls, k: int) -> "ProcessPolicy":
        """Active replication: ``k`` replicas, no recoveries (Fig. 4b)."""
        return cls(tuple(CopyPlan(0, 0) for _ in range(k + 1)))

    @classmethod
    def replication_and_checkpointing(
        cls, k: int, replicas: int, *, checkpoints: int = 0,
    ) -> "ProcessPolicy":
        """Combined policy (Fig. 4c): ``replicas`` extra copies with no
        recoveries plus one recovering copy covering the remaining
        ``k - replicas`` faults."""
        if not 0 < replicas < k:
            raise PolicyError(
                f"combined policy requires 0 < Q < k, got Q={replicas}, k={k}"
            )
        recovering = CopyPlan(recoveries=k - replicas, checkpoints=checkpoints)
        plain = tuple(CopyPlan(0, 0) for _ in range(replicas))
        return cls((recovering,) + plain)

    # -- paper accessors ------------------------------------------------------

    @property
    def kind(self) -> PolicyKind:
        """The ``P`` function value."""
        if len(self.copies) == 1:
            if self.copies[0].recoveries == 0:
                return PolicyKind.NONE
            return PolicyKind.CHECKPOINTING
        if any(c.recoveries > 0 for c in self.copies):
            return PolicyKind.REPLICATION_AND_CHECKPOINTING
        return PolicyKind.REPLICATION

    @property
    def replica_count(self) -> int:
        """The ``Q`` function value (copies minus the original)."""
        return len(self.copies) - 1

    def recoveries_of(self, copy: int) -> int:
        """The ``R`` function value for one copy."""
        return self.copies[copy].recoveries

    def checkpoints_of(self, copy: int) -> int:
        """The ``X`` function value for one copy."""
        return self.copies[copy].checkpoints

    @property
    def tolerated_faults(self) -> int:
        """Max faults guaranteed survived: ``sum_j (R_j + 1) - 1``.

        An adversary must spend ``R_j + 1`` faults to kill copy ``j``;
        with this many faults or fewer, at least one copy completes.
        """
        return sum(c.recoveries + 1 for c in self.copies) - 1

    def tolerates(self, k: int) -> bool:
        """True when the policy survives any ``k`` faults."""
        return self.tolerated_faults >= k

    def with_copy(self, copy: int, plan: CopyPlan) -> "ProcessPolicy":
        """Copy of this policy with one copy plan replaced."""
        plans = list(self.copies)
        plans[copy] = plan
        return ProcessPolicy(tuple(plans))


class PolicyAssignment:
    """The complete ``F = <P, Q, R, X>`` over an application."""

    def __init__(self, policies: Mapping[str, ProcessPolicy]) -> None:
        self._policies = dict(policies)

    @classmethod
    def uniform(cls, app: Application, policy: ProcessPolicy,
                ) -> "PolicyAssignment":
        """Assign the same policy to every process."""
        return cls({name: policy for name in app.process_names})

    @classmethod
    def build(cls, app: Application, default: ProcessPolicy,
              overrides: Mapping[str, ProcessPolicy] | None = None,
              ) -> "PolicyAssignment":
        """Default policy everywhere, with per-process overrides."""
        policies = {name: default for name in app.process_names}
        for name, policy in (overrides or {}).items():
            if name not in policies:
                raise PolicyError(f"override for unknown process {name!r}")
            policies[name] = policy
        return cls(policies)

    def of(self, process: str) -> ProcessPolicy:
        """Policy of one process."""
        try:
            return self._policies[process]
        except KeyError:
            raise PolicyError(f"no policy assigned to {process!r}") from None

    def __contains__(self, process: str) -> bool:
        return process in self._policies

    def items(self) -> Iterable[tuple[str, ProcessPolicy]]:
        """(process, policy) pairs in assignment order."""
        return self._policies.items()

    def replaced(self, process: str, policy: ProcessPolicy,
                 ) -> "PolicyAssignment":
        """A new assignment with one process's policy replaced."""
        if process not in self._policies:
            raise PolicyError(f"no policy assigned to {process!r}")
        updated = dict(self._policies)
        updated[process] = policy
        return PolicyAssignment(updated)

    def validate(self, app: Application, k: int) -> None:
        """Check coverage and the k-fault-tolerance condition."""
        for name in app.process_names:
            if name not in self._policies:
                raise PolicyError(f"process {name!r} has no policy")
            policy = self._policies[name]
            if k > 0 and not policy.tolerates(k):
                raise PolicyError(
                    f"policy of {name!r} tolerates only "
                    f"{policy.tolerated_faults} faults, need {k} "
                    f"(sum of (R_j + 1) must be >= k + 1)"
                )
        extra = set(self._policies) - set(app.process_names)
        if extra:
            raise PolicyError(
                f"policies assigned to unknown processes {sorted(extra)}"
            )

    def total_copies(self) -> int:
        """Total copies over all processes (sizing the copy graph)."""
        return sum(len(p.copies) for p in self._policies.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PolicyAssignment({len(self._policies)} processes)"
