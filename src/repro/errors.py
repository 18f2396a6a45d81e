"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class. The finer-grained subclasses map
to the stages of the synthesis flow: model validation, policy
validation, scheduling, runtime simulation and design optimization.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ModelError(ReproError):
    """The application or architecture model is malformed."""


class ValidationError(ModelError):
    """A model object failed semantic validation (bad WCET, cycle, ...)."""


class PolicyError(ReproError):
    """A fault-tolerance policy assignment is inconsistent or does not
    tolerate the required number of faults."""


class MappingError(ReproError):
    """A mapping decision violates a restriction (e.g. a process placed
    on a node it cannot execute on)."""


class SchedulingError(ReproError):
    """The scheduler could not produce a valid schedule."""


class ContextExplosionError(SchedulingError):
    """The conditional scheduler exceeded its context budget.

    Raised instead of silently burning CPU when the number of explored
    fault contexts passes the configured limit; callers should lower
    ``k``, shrink the application, or use the estimation scheduler.
    """


class SimulationError(ReproError):
    """The runtime simulator detected an inconsistency while executing a
    schedule table (collision, missing input, guard ambiguity, ...)."""


class ToleranceViolationError(SimulationError):
    """A fault scenario within the declared budget ``k`` was *not*
    tolerated by the synthesized schedule."""


class SynthesisError(ReproError):
    """Design-space exploration failed to produce a feasible system
    configuration."""
