"""The synthesis strategies compared in the paper's evaluation.

Fig. 7 compares four approaches by their fault tolerance overhead:

* **MXR** — the proposed approach ([13]): tabu search over mapping
  *and* policy assignment (re-execution, replication, or combined);
* **MX** — mapping optimization with re-execution only;
* **MR** — mapping optimization with active replication only;
* **SFX** — the "straightforward" baseline: the mapping is optimized
  ignoring fault tolerance, then re-execution is added on top.

Fig. 8 uses the checkpointing variants:

* **MC** — like MX but with rollback recovery at the per-process
  optimal ([27]) checkpoint counts;
* **MC_GLOBAL** — MC followed by the global checkpoint-count
  optimization of [15] (:mod:`repro.synthesis.checkpoint_opt`).

Every strategy reports its FTO against the same non-fault-tolerant
baseline (:func:`nft_baseline`): the schedule length produced by the
same mapping optimization with all fault-tolerance ignored (paper §6).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from repro.eval.core import EvaluatorPool
from repro.errors import SynthesisError
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.policies.checkpoints import local_optimal_checkpoints
from repro.policies.types import PolicyAssignment, ProcessPolicy
from repro.schedule.analysis import fault_tolerance_overhead
from repro.schedule.estimation import FtEstimate
from repro.schedule.mapping import CopyMapping
from repro.schedule.priorities import partial_critical_path_priorities
from repro.synthesis.checkpoint_opt import (
    assign_local_optimal_checkpoints,
    optimize_checkpoints_globally,
)
from repro.synthesis.initial import initial_mapping
from repro.synthesis.tabu import TabuSearch, TabuSettings, policy_candidates

#: Strategy names accepted by :func:`synthesize`.
STRATEGIES = ("MXR", "MX", "MR", "SFX", "MC", "MC_GLOBAL")


@dataclass
class StrategyResult:
    """Outcome of one strategy run."""

    strategy: str
    policies: PolicyAssignment
    mapping: CopyMapping
    estimate: FtEstimate
    nft_length: float
    evaluations: int

    @property
    def schedule_length(self) -> float:
        """Estimated worst-case fault-tolerant schedule length."""
        return self.estimate.schedule_length

    @property
    def fto(self) -> float:
        """Fault tolerance overhead in percent (paper §6)."""
        return fault_tolerance_overhead(self.schedule_length,
                                        self.nft_length)


@dataclass
class NftBaseline:
    """The fault-tolerance-ignorant synthesis result."""

    mapping: CopyMapping
    length: float
    process_map: dict[str, str]
    evaluations: int


def _policy_refinement(app, arch, fault_model, space, policies, mapping,
                       priorities, settings, evaluator):
    """Greedy per-process policy improvement at a fixed mapping.

    Iterates the processes in PCP-priority order; each one adopts the
    candidate policy (new replicas placed greedily) that minimizes the
    estimated schedule length. Repeats until a fixpoint (bounded).
    Every candidate is a single-process :class:`PolicyMove` away from
    the incumbent, so cache misses re-evaluate incrementally."""
    from repro.synthesis.moves import PolicyMove

    state = evaluator.estimate_state(
        policies, mapping, bus_contention=settings.bus_contention)
    estimate = state.estimate
    evaluations = 1
    order = sorted(app.process_names,
                   key=lambda name: -priorities[name])
    for _round in range(3):
        improved = False
        for name in order:
            candidates = space(name)
            if len(candidates) <= 1:
                continue
            best = (policies, mapping, estimate, state)
            for candidate in candidates:
                move = PolicyMove(name, candidate)
                if not move.applies_to((policies, mapping)):
                    continue
                new_policies, new_mapping = move.apply(
                    (policies, mapping), app)
                new_state = evaluator.estimate_move(
                    state, new_policies, new_mapping, name)
                evaluations += 1
                if new_state.estimate.schedule_length \
                        < best[2].schedule_length - 1e-9:
                    best = (new_policies, new_mapping,
                            new_state.estimate, new_state)
            if best[2].schedule_length < estimate.schedule_length - 1e-9:
                policies, mapping, estimate, state = best
                improved = True
        if not improved:
            break
    return policies, mapping, estimate, evaluations


def _extend_process_map(app: Application,
                        process_map: Mapping[str, str],
                        policies: PolicyAssignment) -> CopyMapping:
    """Copy 0 of each process on its given node; extra copies (from
    fixed replication policies) greedily on other allowed nodes."""
    assignments: dict[tuple[str, int], str] = {}
    loads: dict[str, float] = {}
    for name, policy in policies.items():
        process = app.process(name)
        home = process_map[name]
        assignments[(name, 0)] = home
        loads[home] = loads.get(home, 0.0) + 1.0
        used = {home}
        allowed = list(process.allowed_nodes)
        for copy_index in range(1, len(policy.copies)):
            fresh = [n for n in allowed if n not in used]
            pool = fresh if fresh else allowed
            choice = min(pool, key=lambda n: (loads.get(n, 0.0), n))
            assignments[(name, copy_index)] = choice
            loads[choice] = loads.get(choice, 0.0) + 1.0
            used.add(choice)
    return CopyMapping(assignments)


def nft_baseline(app: Application, arch: Architecture,
                 settings: TabuSettings | None = None,
                 priorities: Mapping[str, float] | None = None,
                 cache: EvaluatorPool | None = None,
                 ) -> NftBaseline:
    """Optimize the mapping ignoring fault tolerance.

    Implemented as the same tabu engine with a zero-fault model and
    bare policies, so "the same techniques but ignoring fault
    tolerance" (paper §6) is literally true.
    """
    policies = PolicyAssignment.uniform(app, ProcessPolicy.none())
    search = TabuSearch(app, arch, FaultModel(k=0), policy_space=None,
                        settings=settings, priorities=priorities,
                        cache=cache)
    result = search.optimize((policies, initial_mapping(app, arch,
                                                        policies)))
    process_map = {name: result.mapping.node_of(name, 0)
                   for name in app.process_names}
    return NftBaseline(
        mapping=result.mapping,
        length=result.estimate.schedule_length,
        process_map=process_map,
        evaluations=result.evaluations,
    )


def synthesize(
    app: Application,
    arch: Architecture,
    fault_model: FaultModel,
    strategy: str = "MXR",
    *,
    settings: TabuSettings | None = None,
    baseline: NftBaseline | None = None,
    fixed_policies: Mapping[str, ProcessPolicy] | None = None,
    cache: EvaluatorPool | None = None,
) -> StrategyResult:
    """Run one synthesis strategy and report its FTO.

    Passing a precomputed ``baseline`` avoids re-running the NFT
    optimization when several strategies are compared on one workload
    (as the Fig. 7 experiment does).

    ``cache`` is an :class:`~repro.eval.EvaluatorPool` memoizing the
    schedule-length estimate across the whole run (tabu neighborhoods,
    refinement sweeps, checkpoint descent). When ``None`` a private
    per-call pool is used; passing one pool to several strategy runs
    on the same workload (as the batch engine does per sweep cell)
    additionally shares estimates *between* strategies. Caching never
    changes results — the estimate is a pure function of the solution
    — only how often it is recomputed, and uncached one-move
    neighbors are re-evaluated incrementally (bit-identically) from
    their parent.

    ``fixed_policies`` pins the fault-tolerance policy of selected
    processes (paper §6: "there are cases when the policy assignment
    decision is taken based on the experience of the designer"); the
    search then only decides the remaining processes. Fixed policies
    must tolerate ``k`` faults and are honored by every strategy.

    Everything is deterministic under a fixed
    :class:`~repro.synthesis.tabu.TabuSettings` seed:

    >>> from repro.model import FaultModel
    >>> from repro.synthesis import TabuSettings, synthesize
    >>> from repro.workloads import fig3_example
    >>> app, arch = fig3_example()
    >>> result = synthesize(
    ...     app, arch, FaultModel(k=1), "MXR",
    ...     settings=TabuSettings(iterations=4, neighborhood=6,
    ...                           seed=1, bus_contention=False))
    >>> print(f"{result.strategy}: length "
    ...       f"{result.schedule_length:.1f} (NFT "
    ...       f"{result.nft_length:.1f}, FTO {result.fto:.0f} %)")
    MXR: length 260.0 (NFT 142.0, FTO 83 %)
    """
    if strategy not in STRATEGIES:
        raise SynthesisError(
            f"unknown strategy {strategy!r}; choose one of {STRATEGIES}")
    settings = settings or TabuSettings()
    k = fault_model.k
    fixed_policies = dict(fixed_policies or {})
    for name, policy in fixed_policies.items():
        if name not in set(app.process_names):
            raise SynthesisError(
                f"fixed policy for unknown process {name!r}")
        if k > 0 and not policy.tolerates(k):
            raise SynthesisError(
                f"fixed policy of {name!r} does not tolerate k={k}")
    if cache is None:
        cache = EvaluatorPool()
    priorities = partial_critical_path_priorities(app, arch)
    evaluator = cache.evaluator_for(app, arch, fault_model,
                                    priorities=priorities)
    if baseline is None:
        baseline = nft_baseline(app, arch, settings, priorities, cache)

    if strategy == "SFX":
        # Fault-ignorant mapping, then re-execution bolted on.
        policies = PolicyAssignment.build(
            app, ProcessPolicy.re_execution(k), fixed_policies)
        mapping = _extend_process_map(app, baseline.process_map,
                                      policies)
        estimate = evaluator.estimate(
            policies, mapping,
            bus_contention=settings.bus_contention)
        return StrategyResult(
            strategy=strategy, policies=policies, mapping=mapping,
            estimate=estimate, nft_length=baseline.length,
            evaluations=baseline.evaluations)

    checkpoints_for = None
    if strategy in ("MC", "MC_GLOBAL"):
        def checkpoints_for(name: str, _app=app, _k=k) -> int:
            process = _app.process(name)
            mean_wcet = (sum(process.wcet.values())
                         / len(process.wcet))
            return local_optimal_checkpoints(
                mean_wcet, _k, process.alpha, process.chi,
                mu=process.mu)

    def pinned(base_space):
        def space(process_name: str):
            fixed = fixed_policies.get(process_name)
            if fixed is not None:
                return (fixed,)
            return base_space(process_name)
        return space

    full_space = pinned(policy_candidates(
        app, k,
        allow_combined=k >= 2,
        checkpoints_for=checkpoints_for,
    ))
    reexec_space = pinned(policy_candidates(
        app, k, allow_replication=False, allow_combined=False,
        checkpoints_for=checkpoints_for,
    ))
    replication_space = pinned(policy_candidates(
        app, k, allow_re_execution=False, allow_combined=False,
        checkpoints_for=checkpoints_for,
    ))

    def run_pass(start_policy: ProcessPolicy | None, tabu_space,
                 sweep_space):
        """One tabu run plus (optionally) a policy-refinement sweep."""
        if start_policy is None:
            start = assign_local_optimal_checkpoints(
                app, PolicyAssignment.uniform(
                    app, ProcessPolicy.re_execution(k)), k)
            # Designer-fixed policies stay verbatim (no tuning).
            for name, fixed in fixed_policies.items():
                start = start.replaced(name, fixed)
        else:
            start = PolicyAssignment.build(app, start_policy,
                                           fixed_policies)
        if k == 0:
            start = PolicyAssignment.uniform(app, ProcessPolicy.none())
        search = TabuSearch(app, arch, fault_model,
                            policy_space=tabu_space if k > 0 else None,
                            settings=settings, priorities=priorities,
                            evaluator=evaluator)
        result = search.optimize(
            (start, initial_mapping(app, arch, start)))
        passes = [(result.policies, result.mapping, result.estimate)]
        evals = result.evaluations
        if k > 0 and sweep_space is not None:
            # Deterministic policy-refinement sweep, mirroring the
            # alternating mapping/policy phases of [13]: with the
            # mapping fixed, each process greedily adopts its best
            # policy candidate until a fixpoint.
            refined = _policy_refinement(
                app, arch, fault_model, sweep_space, result.policies,
                result.mapping, priorities, settings, evaluator)
            passes.append(refined[:3])
            evals += refined[3]
        best = min(passes, key=lambda p: p[2].schedule_length)
        return best + (evals,)

    if strategy == "MXR":
        # Three passes: the two pure starting points explored exactly
        # like MX and MR (so MXR dominates both by construction, as in
        # the paper's Fig. 7) plus a free full-space search that can
        # mix policies mid-flight; every pass ends with the refinement
        # sweep over the full space.
        passes = [
            run_pass(ProcessPolicy.re_execution(k), reexec_space,
                     full_space),
            run_pass(ProcessPolicy.replication(k), replication_space,
                     full_space),
            run_pass(ProcessPolicy.re_execution(k), full_space,
                     full_space),
        ]
        evaluations = baseline.evaluations + sum(p[3] for p in passes)
        policies, mapping, estimate, __ = min(
            passes, key=lambda p: p[2].schedule_length)
    else:
        start_policy = {
            "MX": ProcessPolicy.re_execution(k),
            "MR": ProcessPolicy.replication(k),
            "MC": None,
            "MC_GLOBAL": None,
        }[strategy]
        tabu_space = (replication_space if strategy == "MR"
                      else reexec_space)
        policies, mapping, estimate, evals = run_pass(
            start_policy, tabu_space, None)
        evaluations = baseline.evaluations + evals

    if strategy == "MC_GLOBAL":
        policies, estimate, extra = optimize_checkpoints_globally(
            app, arch, mapping, policies, fault_model,
            priorities=priorities,
            bus_contention=settings.bus_contention,
            evaluator=evaluator)
        evaluations += extra

    return StrategyResult(
        strategy=strategy, policies=policies, mapping=mapping,
        estimate=estimate, nft_length=baseline.length,
        evaluations=evaluations)
