"""Fault-plan sampling strategies for Monte Carlo campaigns.

A campaign stresses one synthesized schedule under many concrete
fault scenarios. Which scenarios depends on the instance size:

* ``exhaustive`` — every plan :func:`repro.ftcpg.scenarios.
  iter_fault_plans` enumerates, for instances whose plan count
  (:func:`repro.ftcpg.scenarios.count_fault_plans`) is small enough;
* ``uniform`` — the fault-free plan plus random plans whose fault
  count is drawn uniformly from ``1..k``
  (:func:`repro.runtime.faults.sample_fault_plans`);
* ``stratified`` — one stratum per total fault count ``1..k`` with an
  equal share of the sample budget each (a saturated stratum donates
  its unused quota to the rest). Uniform sampling concentrates
  on mid-range counts (there are combinatorially more of them);
  stratification guarantees the rare extremes — single faults and the
  full budget ``k``, which exercise the deepest recovery slack — are
  covered even with small budgets.

All strategies are deterministic: the drawn plan *list* is a pure
function of ``(instance, strategy, samples, seed)``, with per-stratum
streams derived via :func:`repro.utils.rng.derive_seed`. Campaign
chunks rely on this — every chunk re-derives the same list and
simulates its own stride slice (:func:`chunk_slice`), so a chunked
parallel run covers exactly the plans a serial run covers.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TypeVar

from repro.errors import PolicyError
from repro.ftcpg.scenarios import (
    FaultPlan,
    count_fault_plans,
    iter_fault_plans,
)
from repro.model.application import Application
from repro.policies.types import PolicyAssignment
from repro.runtime.faults import sample_fault_plan_exact, sample_fault_plans
from repro.utils.rng import DeterministicRng, derive_seed

#: Strategy names accepted by :func:`sample_campaign_plans`.
SAMPLERS = ("exhaustive", "uniform", "stratified")

#: Refuse exhaustive enumeration beyond this many plans.
MAX_EXHAUSTIVE_PLANS = 200_000

#: Default limit of a certified campaign: its certificate is skipped
#: for designs with more fault scenarios than this.
DEFAULT_CERTIFY_MAX_SCENARIOS = 200_000


def sample_campaign_plans(
    app: Application,
    policies: PolicyAssignment,
    k: int,
    *,
    sampler: str = "uniform",
    samples: int = 200,
    seed: int = 0,
) -> list[FaultPlan]:
    """The deterministic plan list of one campaign.

    The fault-free plan always comes first (every strategy includes
    it: it anchors the slack-utilization statistic). ``samples``
    bounds the number of *faulty* plans and is ignored by
    ``exhaustive``, which always yields the complete scenario set.
    """
    if sampler not in SAMPLERS:
        raise ValueError(
            f"unknown sampler {sampler!r}, expected one of {SAMPLERS}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if sampler == "exhaustive":
        total = count_fault_plans(app, policies, k)
        if total > MAX_EXHAUSTIVE_PLANS:
            raise PolicyError(
                f"{total} fault plans exceed the exhaustive campaign "
                f"limit {MAX_EXHAUSTIVE_PLANS}; use the 'uniform' or "
                "'stratified' sampler")
        return list(iter_fault_plans(app, policies, k))
    if sampler == "uniform":
        return sample_fault_plans(app, policies, k, samples, seed=seed)
    return _stratified_plans(app, policies, k, samples, seed)


def _stratified_plans(app: Application, policies: PolicyAssignment,
                      k: int, samples: int, seed: int,
                      ) -> list[FaultPlan]:
    """Equal sample share per total fault count ``1..k``.

    A stratum that saturates (tiny instances have only a handful of
    distinct low-count plans) donates its unused quota to the
    remaining strata, so the campaign delivers as close to ``samples``
    faulty plans as the instance admits instead of silently
    under-sampling.
    """
    plans: list[FaultPlan] = [FaultPlan({})]
    seen: set[tuple] = {()}
    if k <= 0:
        return plans
    strata = list(range(1, k + 1))
    rngs = {total: DeterministicRng(derive_seed(seed, "stratum", total))
            for total in strata}

    def draw_one(total: int) -> bool:
        """Add one fresh plan of ``total`` faults; False = saturated.

        Saturation is detected by rejection sampling, so a stratum
        whose remaining fresh plans are a tiny fraction of its space
        can (deterministically per seed) be declared exhausted a few
        plans early; the report's ``plans`` count is the ground truth
        for how many were actually simulated.
        """
        for _attempt in range(200):
            plan = sample_fault_plan_exact(app, policies, total,
                                           rngs[total])
            signature = tuple(sorted(plan.faults.items()))
            if signature not in seen:
                seen.add(signature)
                plans.append(plan)
                return True
        return False

    exhausted: set[int] = set()
    for total in strata:
        quota = samples // k + (1 if total <= samples % k else 0)
        for _ in range(quota):
            if not draw_one(total):
                exhausted.add(total)
                break
    # Spill pass: hand the unused quota of saturated strata to the
    # rest, round-robin so no single fault count dominates the spill.
    while len(plans) - 1 < samples and len(exhausted) < len(strata):
        progressed = False
        for total in strata:
            if total in exhausted or len(plans) - 1 >= samples:
                continue
            if draw_one(total):
                progressed = True
            else:
                exhausted.add(total)
        if not progressed:
            break
    return plans


ItemT = TypeVar("ItemT")


def chunk_slice(plans: Sequence[ItemT], chunk: int, chunks: int,
                ) -> list[ItemT]:
    """The stride slice of one work chunk.

    Chunk ``i`` of ``n`` processes ``plans[i::n]``; the slices
    partition the list exactly, so the union over all chunks —
    however they are scheduled — is the serial run. Generic on
    purpose: campaigns slice fault plans, the design-space explorer
    (:mod:`repro.dse`) slices candidates.
    """
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    if not 0 <= chunk < chunks:
        raise ValueError(f"chunk must be in [0, {chunks}), got {chunk}")
    return list(plans[chunk::chunks])
