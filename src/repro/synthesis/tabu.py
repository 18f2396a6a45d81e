"""Tabu-search design optimization (paper §6, following [13]/[16]).

The search walks (policy assignment, mapping) solutions using the
slack-sharing length estimate as its cost function:

* cost = estimated worst-case schedule length, plus a penalty per time
  unit of global/local deadline overrun (infeasible solutions may be
  traversed but never win);
* each iteration samples a bounded random neighborhood (remap and
  policy moves, deduplicated by move value), evaluates all candidates
  through the :class:`~repro.eval.Evaluator` core — cached solutions
  are free, uncached one-move neighbors are re-evaluated
  *incrementally* from the current solution's
  :class:`~repro.schedule.estimation.EstimatorState` — and takes the
  best *admissible* one: not tabu, or better than everything seen
  (aspiration);
* reversing a move is tabu for ``tenure`` iterations;
* after ``no_improve_restart`` stagnant iterations the search restarts
  from a perturbed copy of the best solution (diversification).

The engine is policy-space agnostic: the strategies of Fig. 7 differ
only in which policies :func:`policy_candidates` may propose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping, Sequence

from repro.eval.core import Evaluator, EvaluatorPool
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.policies.types import PolicyAssignment, ProcessPolicy
from repro.schedule.estimation import EstimatorState, FtEstimate
from repro.schedule.mapping import CopyMapping
from repro.schedule.priorities import partial_critical_path_priorities
from repro.synthesis.moves import PolicyMove, RemapMove, Solution
from repro.utils.rng import DeterministicRng

PolicySpace = Callable[[str], Sequence[ProcessPolicy]]


@dataclass(frozen=True)
class TabuSettings:
    """Search budget and behaviour knobs.

    The defaults are sized for the paper-scale experiments (20–100
    processes); tests use much smaller budgets.
    """

    iterations: int = 48
    neighborhood: int = 28
    tenure: int | None = None
    seed: int = 1
    no_improve_restart: int = 12
    restart_strength: int = 3
    penalty_weight: float = 2.0
    bus_contention: bool = True

    def effective_tenure(self, process_count: int) -> int:
        """Default tenure = isqrt(n) + 2.

        ``math.isqrt`` (not ``int(math.sqrt(...))``) so the tenure is
        exact integer arithmetic: the float square root can land just
        below an exact integer root and truncate one too low, making
        the search trajectory depend on the platform's libm instead of
        only on the seed.
        """
        if self.tenure is not None:
            return self.tenure
        return math.isqrt(max(1, process_count)) + 2


@dataclass
class TabuResult:
    """Best solution found plus search telemetry."""

    policies: PolicyAssignment
    mapping: CopyMapping
    estimate: FtEstimate
    cost: float
    iterations: int
    evaluations: int
    history: list[float] = field(default_factory=list)


class TabuSearch:
    """One search instance over a fixed application/architecture."""

    def __init__(
        self,
        app: Application,
        arch: Architecture,
        fault_model: FaultModel,
        *,
        policy_space: PolicySpace | None = None,
        settings: TabuSettings | None = None,
        priorities: Mapping[str, float] | None = None,
        cache: EvaluatorPool | None = None,
        evaluator: Evaluator | None = None,
    ) -> None:
        self._app = app
        self._fault_model = fault_model
        self._policy_space = policy_space
        self._settings = settings or TabuSettings()
        self._priorities = dict(
            priorities if priorities is not None
            else partial_critical_path_priorities(app, arch))
        if evaluator is None:
            source = cache if cache is not None else EvaluatorPool()
            evaluator = source.evaluator_for(
                app, arch, fault_model, priorities=self._priorities)
        self._evaluator = evaluator
        self._evaluations = 0
        # What a move draw reads of each process, built once: a policy
        # move per policy of its space (``None`` below two policies), to
        # test applicability and duplicates, the allowed nodes the
        # architecture has (in ``allowed_nodes`` order) and whether its
        # original is pinned to a fixed node.
        self._names = app.process_names
        self._draw_options: dict[
            str, tuple[tuple[PolicyMove, ...] | None, tuple[str, ...],
                       bool]] = {}
        node_names = arch.node_names
        for process in app.processes:
            space = (tuple(policy_space(process.name))
                     if policy_space is not None else ())
            self._draw_options[process.name] = (
                tuple(PolicyMove(process.name, policy) for policy in space)
                if len(space) > 1 else None,
                tuple(n for n in process.allowed_nodes if n in node_names),
                process.fixed_node is not None)

    # -- cost ------------------------------------------------------------------

    def _cost(self, estimate: FtEstimate) -> float:
        penalty = 0.0
        overrun = estimate.schedule_length - self._app.deadline
        if overrun > 0:
            penalty += overrun * self._settings.penalty_weight
        for name in estimate.local_deadline_violations:
            local = self._app.process(name).deadline
            penalty += (estimate.completion_bound(name) - local) \
                * self._settings.penalty_weight
        return estimate.schedule_length + penalty

    def _evaluate_state(self, solution: Solution,
                        ) -> tuple[float, EstimatorState]:
        policies, mapping = solution
        state = self._evaluator.estimate_state(
            policies, mapping,
            bus_contention=self._settings.bus_contention)
        self._evaluations += 1
        return self._cost(state.estimate), state

    def _evaluate_move(self, parent: EstimatorState, solution: Solution,
                       changed: str) -> tuple[float, EstimatorState]:
        """Evaluate a one-move neighbor, incrementally when possible."""
        policies, mapping = solution
        state = self._evaluator.estimate_move(parent, policies,
                                              mapping, changed)
        self._evaluations += 1
        return self._cost(state.estimate), state

    def evaluate(self, solution: Solution) -> tuple[float, FtEstimate]:
        """Penalized cost of one solution.

        ``evaluations`` counts logical evaluations — repeated
        solutions are served from the evaluator's cache but still
        counted, so cached and uncached searches report identical
        telemetry.
        """
        cost, state = self._evaluate_state(solution)
        return cost, state.estimate

    # -- neighborhood ------------------------------------------------------------

    def _sample_moves(self, solution: Solution, rng: DeterministicRng,
                      ) -> list[RemapMove | PolicyMove]:
        """Sample a neighborhood of distinct applicable moves.

        The same move can be drawn several times in one neighborhood;
        duplicates are filtered by :meth:`~repro.synthesis.moves.
        RemapMove.dedup_key` so they neither waste an evaluation nor
        crowd out distinct candidates. The RNG stream is untouched by
        the filter — every draw consumes the same random values as
        before, only the acceptance differs (a duplicate no longer
        counts toward the neighborhood size). The resulting
        trajectories are pinned by
        ``tests/test_tabu_determinism.py``.
        """
        policies, mapping = solution
        names = self._names
        moves: list[RemapMove | PolicyMove] = []
        seen: set[tuple] = set()
        attempts = 0
        limit = self._settings.neighborhood
        while len(moves) < limit and attempts < limit * 8:
            attempts += 1
            process_name = rng.choice(names)
            policy_moves, nodes, fixed = self._draw_options[process_name]
            index = None
            if policy_moves is not None and rng.random() < 0.4:
                index = rng.choice(range(len(policy_moves)))
                move = policy_moves[index]
                if not move.applies_to(solution):
                    continue
            else:
                copy_index = rng.randint(
                    0, len(policies.of(process_name).copies) - 1)
                if copy_index == 0 and fixed:
                    continue
                current = mapping.node_of(process_name, copy_index)
                options = [n for n in nodes if n != current]
                if not options:
                    continue
                # Applies by construction: the copy's node is no option.
                move = RemapMove(process_name, copy_index,
                                 rng.choice(options))
            key = move.dedup_key()
            if key in seen:
                continue
            seen.add(key)
            if index is not None:
                # An accepted move gets a policy object of its own from
                # the space: estimator states pickle shared objects by
                # reference, so sharing one across moves would change
                # DiskCache entry bytes.
                move = PolicyMove(process_name,
                                  self._policy_space(process_name)[index])
            moves.append(move)
        return moves

    # -- main loop ----------------------------------------------------------------

    def optimize(self, initial: Solution) -> TabuResult:
        """Run the search from an initial solution."""
        settings = self._settings
        rng = DeterministicRng(settings.seed)
        tenure = settings.effective_tenure(len(self._app))

        current = initial
        current_cost, current_state = self._evaluate_state(current)
        best = current
        best_cost = current_cost
        best_estimate = current_state.estimate
        tabu: dict[tuple, int] = {}
        history = [best_cost]
        stagnant = 0

        for iteration in range(settings.iterations):
            moves = self._sample_moves(current, rng)
            chosen = None
            chosen_cost = None
            chosen_state = None
            chosen_attr = None
            for move in moves:
                attr = move.attribute(current)
                candidate = move.apply(current, self._app)
                cost, state = self._evaluate_move(
                    current_state, candidate, move.process)
                is_tabu = tabu.get(attr, -1) >= iteration
                if is_tabu and cost >= best_cost:
                    continue  # tabu and no aspiration
                if chosen_cost is None or cost < chosen_cost:
                    chosen, chosen_cost = candidate, cost
                    chosen_state, chosen_attr = state, attr
            if chosen is None:
                stagnant += 1
            else:
                tabu[chosen_attr] = iteration + tenure
                current, current_cost = chosen, chosen_cost
                current_state = chosen_state
                if current_cost < best_cost - 1e-9:
                    best, best_cost = current, current_cost
                    best_estimate = current_state.estimate
                    stagnant = 0
                else:
                    stagnant += 1
            history.append(best_cost)

            if stagnant >= settings.no_improve_restart:
                current = self._perturb(best, rng)
                current_cost, current_state = \
                    self._evaluate_state(current)
                tabu.clear()
                stagnant = 0

        return TabuResult(
            policies=best[0],
            mapping=best[1],
            estimate=best_estimate,
            cost=best_cost,
            iterations=settings.iterations,
            evaluations=self._evaluations,
            history=history,
        )

    def _perturb(self, solution: Solution,
                 rng: DeterministicRng) -> Solution:
        """Diversification: a few random remaps away from the best."""
        result = solution
        for _ in range(self._settings.restart_strength):
            moves = self._sample_moves(result, rng)
            if not moves:
                break
            result = rng.choice(moves).apply(result, self._app)
        return result


def policy_candidates(
    app: Application,
    k: int,
    *,
    allow_re_execution: bool = True,
    allow_replication: bool = True,
    allow_combined: bool = True,
    checkpoints_for: Callable[[str], int] | None = None,
) -> PolicySpace:
    """Build the policy space for one strategy.

    ``checkpoints_for`` (process name -> checkpoint count) switches the
    recovering copies from pure re-execution to rollback recovery with
    that many checkpoints (used by the checkpointing strategies of
    Fig. 8).
    """
    def space(process_name: str) -> Sequence[ProcessPolicy]:
        checkpoints = (checkpoints_for(process_name)
                       if checkpoints_for is not None else 0)
        candidates: list[ProcessPolicy] = []
        if allow_re_execution:
            if checkpoints >= 1:
                candidates.append(
                    ProcessPolicy.checkpointing(k, checkpoints))
            else:
                candidates.append(ProcessPolicy.re_execution(k))
        if allow_replication and k >= 1:
            candidates.append(ProcessPolicy.replication(k))
        if allow_combined:
            for replicas in range(1, k):
                candidates.append(
                    ProcessPolicy.replication_and_checkpointing(
                        k, replicas, checkpoints=checkpoints))
        if not candidates:
            candidates.append(ProcessPolicy.none())
        return tuple(candidates)

    return space
