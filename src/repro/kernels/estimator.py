"""The ``kernel_compute`` name that ``perfbench/spans.py`` patches.

Nothing in :mod:`repro` calls it: full estimates run
:meth:`~repro.schedule.estimation.EstimatorState.compute`. The alias
stays until the patch table drops it.
"""

from repro.schedule.estimation import (
    estimate_ft_schedule as kernel_compute,  # noqa: F401 (perfbench patch)
)
