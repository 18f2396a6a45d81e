"""Global checkpoint-count optimization (paper §6, Fig. 8, from [15]).

The [27] baseline picks, for each process in isolation, the checkpoint
count minimizing its own worst case — but checkpoints are paid in
*fault-free* time on the processor by everyone downstream, while the
recovery time they save is *shared slack* (only the node's largest
recovery need matters). Minimizing each process alone therefore
over-checkpoints everything that does not define its node's slack
maximum; the global optimization below fixes exactly that.

Algorithm: steepest-descent over single ``X(P) ± 1`` moves, accepting
the move that most reduces the estimated worst-case schedule length,
until no move improves (bounded by ``max_rounds``). Simple, fully
deterministic, and faithful to the "system optimization" framing of
[15] (the authors likewise embed the checkpoint counts in their
heuristic search rather than solving exactly).
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.eval.core import Evaluator, EvaluatorPool
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.policies.checkpoints import local_optimal_checkpoints
from repro.policies.types import PolicyAssignment
from repro.schedule.estimation import FtEstimate
from repro.schedule.mapping import CopyMapping

#: Safety bound on descent rounds (each round applies one move).
DEFAULT_MAX_ROUNDS = 400


def assign_local_optimal_checkpoints(
    app: Application,
    policies: PolicyAssignment,
    k: int,
    *,
    mapping: CopyMapping | None = None,
) -> PolicyAssignment:
    """Give every recovering copy its per-process [27] optimum.

    With a mapping, the copy's WCET on its node is used; without one,
    the mean WCET (useful before mapping exists).
    """
    updated = policies
    for process_name, policy in policies.items():
        process = app.process(process_name)
        new_policy = policy
        for copy_index, plan in enumerate(policy.copies):
            if plan.recoveries == 0:
                continue
            if mapping is not None:
                wcet = process.wcet_on(
                    mapping.node_of(process_name, copy_index))
            else:
                wcet = sum(process.wcet.values()) / len(process.wcet)
            optimum = local_optimal_checkpoints(
                wcet, min(k, plan.recoveries), process.alpha,
                process.chi, mu=process.mu)
            new_policy = new_policy.with_copy(
                copy_index, plan.with_checkpoints(optimum))
        if new_policy is not policy:
            updated = updated.replaced(process_name, new_policy)
    return updated


def optimize_checkpoints_globally(
    app: Application,
    arch: Architecture,
    mapping: CopyMapping,
    policies: PolicyAssignment,
    fault_model: FaultModel,
    *,
    priorities: Mapping[str, float] | None = None,
    bus_contention: bool = True,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    cache: EvaluatorPool | None = None,
    evaluator: Evaluator | None = None,
) -> tuple[PolicyAssignment, FtEstimate, int]:
    """Steepest-descent over per-copy checkpoint counts.

    Returns ``(policies, estimate, evaluations)``; the mapping is kept
    fixed (checkpoint tuning happens inside the mapping search's inner
    loop in [15]; here it is exposed as its own pass so the Fig. 8
    comparison isolates exactly the checkpointing decision).
    ``evaluations`` counts logical estimator calls whether or not the
    evaluation core serves them from its cache. Every ``X(P) ± 1``
    candidate differs from the incumbent by one process, so cache
    misses take the incremental re-evaluation path.
    """
    if evaluator is None:
        source = cache if cache is not None else EvaluatorPool()
        evaluator = source.evaluator_for(app, arch, fault_model,
                                         priorities=priorities)

    evaluations = 1
    current = policies
    current_state = evaluator.estimate_state(
        current, mapping, bus_contention=bus_contention)

    for _ in range(max_rounds):
        best_move: PolicyAssignment | None = None
        best_state = current_state
        for process_name, policy in current.items():
            for copy_index, plan in enumerate(policy.copies):
                if plan.recoveries == 0 or plan.checkpoints == 0:
                    continue
                for delta in (-1, 1):
                    checkpoints = plan.checkpoints + delta
                    if checkpoints < 1:
                        continue
                    candidate = current.replaced(
                        process_name,
                        policy.with_copy(
                            copy_index,
                            plan.with_checkpoints(checkpoints)))
                    state = evaluator.estimate_move(
                        current_state, candidate, mapping,
                        process_name)
                    evaluations += 1
                    if state.estimate.schedule_length \
                            < best_state.estimate.schedule_length - 1e-9:
                        best_move = candidate
                        best_state = state
        if best_move is None:
            break
        current = best_move
        current_state = best_state
    return current, current_state.estimate, evaluations
