"""Unit tests for the slack-sharing FT schedule length estimation
(paper §6, DESIGN.md §2.5)."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import MappingError
from repro.model import Application, FaultModel, Message, Process
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.schedule import (
    CopyMapping,
    estimate_ft_schedule,
    synthesize_schedule,
)
from repro.synthesis import initial_mapping
from repro.workloads import GeneratorConfig, generate_workload
from tests.conftest import make_mapping


def reexec(app, k):
    return PolicyAssignment.uniform(app, ProcessPolicy.re_execution(k))


class TestBasicProperties:
    def test_k0_equals_plain_lengths(self, chain_app, two_nodes):
        policies = PolicyAssignment.uniform(chain_app,
                                            ProcessPolicy.none())
        mapping = CopyMapping.from_process_map(
            {"P1": "N1", "P2": "N1", "P3": "N1"}, policies)
        estimate = estimate_ft_schedule(chain_app, two_nodes, mapping,
                                        policies, FaultModel(k=0))
        assert estimate.schedule_length == pytest.approx(40.0)

    def test_length_monotone_in_k(self, chain_app, two_nodes):
        lengths = []
        for k in range(4):
            policies = reexec(chain_app, k) if k else \
                PolicyAssignment.uniform(chain_app, ProcessPolicy.none())
            mapping = CopyMapping.from_process_map(
                {"P1": "N1", "P2": "N1", "P3": "N1"}, policies)
            estimate = estimate_ft_schedule(chain_app, two_nodes, mapping,
                                            policies, FaultModel(k=k))
            lengths.append(estimate.schedule_length)
        assert lengths == sorted(lengths)

    def test_wc_not_below_ff(self, fork_join_app, two_nodes):
        policies = reexec(fork_join_app, 2)
        mapping = make_mapping(fork_join_app, policies)
        estimate = estimate_ft_schedule(fork_join_app, two_nodes, mapping,
                                        policies, FaultModel(k=2))
        assert estimate.schedule_length >= estimate.ff_length
        for timing in estimate.timings.values():
            assert timing.wc_finish >= timing.ff_finish - 1e-9


class TestFaultFreeScheduling:
    """At ``k = 0`` with ``ProcessPolicy.none()`` the estimator is the
    fault-free list schedule whose length is the NFT baseline of the
    FTO metric (paper §6)."""

    @staticmethod
    def nft(app, arch, nodes, **kwargs):
        policies = PolicyAssignment.uniform(app, ProcessPolicy.none())
        mapping = CopyMapping.from_process_map(nodes, policies)
        return estimate_ft_schedule(app, arch, mapping, policies,
                                    FaultModel(k=0), **kwargs)

    @staticmethod
    def start(estimate, process):
        return estimate.timings[(process, 0)].start

    @staticmethod
    def finish(estimate, process):
        return estimate.timings[(process, 0)].wc_finish

    def test_chain_same_node(self, chain_app, two_nodes):
        estimate = self.nft(chain_app, two_nodes,
                            {"P1": "N1", "P2": "N1", "P3": "N1"})
        assert self.start(estimate, "P1") == 0.0
        assert self.start(estimate, "P2") == 10.0
        assert self.start(estimate, "P3") == 30.0
        assert estimate.schedule_length == 40.0

    def test_chain_cross_node_pays_bus(self, chain_app, two_nodes):
        estimate = self.nft(chain_app, two_nodes,
                            {"P1": "N1", "P2": "N2", "P3": "N1"})
        assert self.start(estimate, "P2") > self.finish(estimate, "P1")
        assert self.start(estimate, "P3") > self.finish(estimate, "P2")

    def test_parallel_branches_overlap(self, fork_join_app, two_nodes):
        estimate = self.nft(fork_join_app, two_nodes,
                            {"P1": "N1", "P2": "N1", "P3": "N2",
                             "P4": "N1"})
        # P2 and P3 run concurrently on different nodes.
        assert self.start(estimate, "P3") < self.finish(estimate, "P2")

    def test_release_time_respected(self, two_nodes):
        app = Application(
            [Process("P1", {"N1": 5.0}, release=42.0)], deadline=100)
        estimate = self.nft(app, two_nodes, {"P1": "N1"})
        assert self.start(estimate, "P1") == 42.0

    def test_processor_exclusive(self, fork_join_app, two_nodes):
        nodes = {p: "N1" for p in fork_join_app.process_names}
        estimate = self.nft(fork_join_app, two_nodes, nodes)
        intervals = sorted(
            (self.start(estimate, p), self.finish(estimate, p))
            for p in fork_join_app.process_names)
        for (s1, f1), (s2, _f2) in zip(intervals, intervals[1:]):
            assert s2 >= f1 - 1e-9

    def test_uncontended_mode_faster_or_equal(self, two_nodes):
        app = Application(
            [Process("A1", {"N1": 5.0}), Process("A2", {"N1": 5.0}),
             Process("B1", {"N2": 10.0}), Process("B2", {"N2": 10.0})],
            [Message("ma", "A1", "B1", size_bytes=4),
             Message("mb", "A2", "B2", size_bytes=4)],
            deadline=500)
        nodes = {"A1": "N1", "A2": "N1", "B1": "N2", "B2": "N2"}
        contended = self.nft(app, two_nodes, nodes)
        relaxed = self.nft(app, two_nodes, nodes, bus_contention=False)
        assert relaxed.schedule_length \
            <= contended.schedule_length + 1e-9


class TestSlackSharing:
    """Same-node copies share one slack window (max, not sum)."""

    def _single_node_app(self):
        return Application(
            [Process("A", {"N1": 30.0}, mu=2.0),
             Process("B", {"N1": 50.0}, mu=2.0)],
            [Message("m", "A", "B")],
            deadline=10_000)

    def test_shared_slack_is_max(self, two_nodes):
        app = self._single_node_app()
        k = 2
        policies = reexec(app, k)
        mapping = CopyMapping.from_process_map({"A": "N1", "B": "N1"},
                                               policies)
        estimate = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                        FaultModel(k=k))
        # ff = 80 (no alpha here? alpha=0) ; slack = k*(50+2) = 104.
        slack_b = k * (50.0 + 2.0)
        assert estimate.schedule_length == pytest.approx(80.0 + slack_b)

    def test_slack_not_summed(self, two_nodes):
        app = self._single_node_app()
        k = 1
        policies = reexec(app, k)
        mapping = CopyMapping.from_process_map({"A": "N1", "B": "N1"},
                                               policies)
        estimate = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                        FaultModel(k=k))
        sum_of_slacks = (30.0 + 2.0) + (50.0 + 2.0)
        assert estimate.schedule_length < 80.0 + sum_of_slacks

    def test_cross_node_consumer_sees_worst_case(self, two_nodes):
        app = Application(
            [Process("A", {"N1": 30.0}, mu=2.0),
             Process("B", {"N2": 10.0}, mu=2.0)],
            [Message("m", "A", "B", size_bytes=4)],
            deadline=10_000)
        policies = reexec(app, 1)
        mapping = CopyMapping.from_process_map({"A": "N1", "B": "N2"},
                                               policies)
        estimate = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                        FaultModel(k=1))
        b = estimate.timings[("B", 0)]
        a = estimate.timings[("A", 0)]
        # B waits for A's worst-case finish plus the bus.
        assert b.start >= a.wc_finish


class TestReplication:
    def test_replicas_add_no_slack(self, two_nodes):
        app = Application([Process("A", {"N1": 30.0, "N2": 30.0},
                                   mu=2.0)], deadline=10_000)
        policies = PolicyAssignment.uniform(app,
                                            ProcessPolicy.replication(1))
        mapping = CopyMapping({("A", 0): "N1", ("A", 1): "N2"})
        estimate = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                        FaultModel(k=1))
        # Two parallel copies, no recovery slack: length = C + alpha = 30.
        assert estimate.schedule_length == pytest.approx(30.0)

    def test_consumer_waits_for_slowest_copy(self, two_nodes):
        app = Application(
            [Process("A", {"N1": 10.0, "N2": 40.0}),
             Process("B", {"N1": 5.0, "N2": 5.0})],
            [Message("m", "A", "B", size_bytes=4)],
            deadline=10_000)
        policies = PolicyAssignment.build(
            app, ProcessPolicy.replication(1),
            {"B": ProcessPolicy.re_execution(1)})
        mapping = CopyMapping({("A", 0): "N1", ("A", 1): "N2",
                               ("B", 0): "N1"})
        estimate = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                        FaultModel(k=1))
        # The N2 copy finishes at 40; B cannot start before it delivers.
        assert estimate.timings[("B", 0)].start > 40.0

    def test_colocated_replicas_serialize(self, two_nodes):
        app = Application([Process("A", {"N1": 30.0, "N2": 30.0})],
                          deadline=10_000)
        policies = PolicyAssignment.uniform(app,
                                            ProcessPolicy.replication(1))
        both_n1 = CopyMapping({("A", 0): "N1", ("A", 1): "N1"})
        spread = CopyMapping({("A", 0): "N1", ("A", 1): "N2"})
        est_serial = estimate_ft_schedule(app, two_nodes, both_n1,
                                          policies, FaultModel(k=1))
        est_spread = estimate_ft_schedule(app, two_nodes, spread,
                                          policies, FaultModel(k=1))
        assert est_serial.schedule_length > est_spread.schedule_length


class TestCheckpointingInEstimation:
    def test_checkpoints_reduce_slack_increase_ff(self, two_nodes):
        app = Application([Process("A", {"N1": 60.0}, alpha=1.0, mu=1.0,
                                   chi=1.0)], deadline=10_000)
        k = 2
        reexec_pol = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(k))
        ckpt_pol = PolicyAssignment.uniform(
            app, ProcessPolicy.checkpointing(k, 4))
        mapping = CopyMapping({("A", 0): "N1"})
        est_reexec = estimate_ft_schedule(app, two_nodes, mapping,
                                          reexec_pol, FaultModel(k=k))
        est_ckpt = estimate_ft_schedule(app, two_nodes, mapping,
                                        ckpt_pol, FaultModel(k=k))
        assert est_ckpt.ff_length > est_reexec.ff_length
        assert est_ckpt.schedule_length < est_reexec.schedule_length


class TestDeadlines:
    def test_local_deadline_violation_reported(self, two_nodes):
        app = Application(
            [Process("A", {"N1": 30.0}, mu=2.0, deadline=40.0)],
            deadline=100.0)
        policies = reexec(app, 1)
        mapping = CopyMapping({("A", 0): "N1"})
        estimate = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                        FaultModel(k=1))
        assert estimate.local_deadline_violations == ("A",)
        assert not estimate.feasible

    def test_global_deadline_flag(self, two_nodes):
        app = Application([Process("A", {"N1": 30.0}, mu=2.0)],
                          deadline=31.0)
        policies = reexec(app, 1)
        mapping = CopyMapping({("A", 0): "N1"})
        estimate = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                        FaultModel(k=1))
        assert not estimate.meets_deadline

    def test_completion_bound(self, fork_join_app, two_nodes):
        policies = reexec(fork_join_app, 1)
        mapping = make_mapping(fork_join_app, policies)
        estimate = estimate_ft_schedule(fork_join_app, two_nodes, mapping,
                                        policies, FaultModel(k=1))
        assert estimate.completion_bound("P4") == \
            estimate.timings[("P4", 0)].wc_finish


class TestBudgetedSlackSharing:
    """The sound slack-sharing mode used by fault-injection campaigns.

    The default ``"max"`` rule assumes every copy can absorb all ``k``
    faults; with heterogeneous recovery budgets the adversary splits
    faults across saturated copies, and ``"budgeted"`` must charge
    that worst distribution.
    """

    def _two_independent(self, *, r_a: int, r_b: int):
        app = Application(
            [Process("A", {"N1": 50.0}),
             Process("B", {"N1": 30.0})],
            deadline=1000.0)
        policies = PolicyAssignment.build(
            app, ProcessPolicy.re_execution(r_a),
            {"B": ProcessPolicy.re_execution(r_b)})
        mapping = CopyMapping({("A", 0): "N1", ("B", 0): "N1"})
        return app, policies, mapping

    def test_unknown_mode_rejected(self, chain_app, two_nodes):
        policies = reexec(chain_app, 1)
        mapping = make_mapping(chain_app, policies)
        with pytest.raises(ValueError, match="slack_sharing"):
            estimate_ft_schedule(chain_app, two_nodes, mapping,
                                 policies, FaultModel(k=1),
                                 slack_sharing="nope")

    def test_matches_max_for_uniform_budgets(self, two_nodes):
        # Every copy can absorb the whole budget: concentration on the
        # costliest copy dominates, the DP reduces to the running max.
        app, policies, mapping = self._two_independent(r_a=2, r_b=2)
        fm = FaultModel(k=2)
        base = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                    fm)
        budgeted = estimate_ft_schedule(app, two_nodes, mapping,
                                        policies, fm,
                                        slack_sharing="budgeted")
        assert budgeted.schedule_length == \
            pytest.approx(base.schedule_length)
        # Both faults concentrated on A: ff 80 + 2 * 50.
        assert budgeted.schedule_length == pytest.approx(180.0)

    def test_charges_split_across_saturated_copies(self, two_nodes):
        # A can only absorb one fault (R=1 < k=2): the worst adversary
        # splits 1+1, costing 50 + 30 = 80 — more than either
        # concentration (A: 50, B: 60) the max rule considers.
        app, policies, mapping = self._two_independent(r_a=1, r_b=2)
        fm = FaultModel(k=2)
        base = estimate_ft_schedule(app, two_nodes, mapping, policies,
                                    fm)
        budgeted = estimate_ft_schedule(app, two_nodes, mapping,
                                        policies, fm,
                                        slack_sharing="budgeted")
        assert base.schedule_length == pytest.approx(80.0 + 60.0)
        assert budgeted.schedule_length == pytest.approx(80.0 + 80.0)

    def test_never_below_max_mode(self, fork_join_app, two_nodes):
        for k in (1, 2, 3):
            policies = reexec(fork_join_app, k)
            mapping = make_mapping(fork_join_app, policies)
            fm = FaultModel(k=k)
            base = estimate_ft_schedule(fork_join_app, two_nodes,
                                        mapping, policies, fm)
            budgeted = estimate_ft_schedule(fork_join_app, two_nodes,
                                            mapping, policies, fm,
                                            slack_sharing="budgeted")
            assert budgeted.schedule_length >= \
                base.schedule_length - 1e-9

    def test_budget_exhaustion_discount_applied(self, two_nodes):
        # One copy, alpha > 0: the final retry of a full budget skips
        # detection exactly as in worst_case_duration (Fig. 1c), in
        # both sharing modes.
        app = Application([Process("A", {"N1": 60.0}, alpha=10.0,
                                   mu=10.0)], deadline=1000.0)
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(1))
        mapping = CopyMapping({("A", 0): "N1"})
        fm = FaultModel(k=1)
        for mode in ("max", "budgeted"):
            estimate = estimate_ft_schedule(app, two_nodes, mapping,
                                            policies, fm,
                                            slack_sharing=mode)
            # ff 70 (C + alpha) + retry (C + mu + alpha) - alpha.
            assert estimate.schedule_length == pytest.approx(140.0)

    def test_cache_keys_modes_separately(self, chain_app, two_nodes):
        from repro.eval import EvaluatorPool
        policies = PolicyAssignment.build(
            chain_app, ProcessPolicy.re_execution(1),
            {chain_app.process_names[0]:
             ProcessPolicy.re_execution(2)})
        mapping = make_mapping(chain_app, policies)
        fm = FaultModel(k=2)
        pool = EvaluatorPool()
        evaluator = pool.evaluator_for(chain_app, two_nodes, fm)
        base = evaluator.estimate(policies, mapping)
        budgeted = evaluator.estimate(policies, mapping,
                                      slack_sharing="budgeted")
        assert pool.stats().estimates.misses == 2
        assert budgeted.schedule_length >= base.schedule_length - 1e-9
        assert evaluator.estimate(policies, mapping,
                                  slack_sharing="budgeted") is budgeted


class TestMappingValidation:
    """The estimator rejects every mapping the exact scheduler rejects.

    A is fixed on N1, B lists a WCET on N3 (which the architecture
    lacks), and C runs on N1 only. Each case breaks the legal mapping
    ``A->N1, B->N2, C->N1`` in one way; both entry points must raise
    :class:`MappingError` instead of estimating the illegal design.
    """

    LEGAL = {("A", 0): "N1", ("B", 0): "N2", ("C", 0): "N1"}
    CASES = {
        "fixed-node-moved": ({("A", 0): "N2"}, ()),
        "stale-entry": ({("X", 0): "N1"}, ()),
        "unknown-node": ({("B", 0): "N3"}, ()),
        "node-without-wcet": ({("C", 0): "N2"}, ()),
        "unmapped-copy": ({}, (("C", 0),)),
    }

    @staticmethod
    def _app() -> Application:
        return Application(
            [Process("A", {"N1": 30.0, "N2": 40.0}, fixed_node="N1"),
             Process("B", {"N1": 20.0, "N2": 25.0, "N3": 22.0}),
             Process("C", {"N1": 15.0})],
            [Message("ab", "A", "B", size_bytes=4),
             Message("ac", "A", "C", size_bytes=4)],
            deadline=1000.0)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_illegal_mapping_rejected_like_exact_scheduler(
            self, two_nodes, case):
        app = self._app()
        policies = reexec(app, 1)
        fm = FaultModel(k=1)
        # The unbroken mapping is legal, so each case fails for its
        # own reason.
        estimate_ft_schedule(app, two_nodes, CopyMapping(self.LEGAL),
                             policies, fm)
        moved, dropped = self.CASES[case]
        assignments = {**self.LEGAL, **moved}
        for key in dropped:
            del assignments[key]
        mapping = CopyMapping(assignments)
        with pytest.raises(MappingError):
            synthesize_schedule(app, two_nodes, mapping, policies, fm)
        with pytest.raises(MappingError):
            estimate_ft_schedule(app, two_nodes, mapping, policies, fm)


def _pin_policy(kind: str, k: int, index: int) -> ProcessPolicy:
    if kind == "reexec":
        return ProcessPolicy.re_execution(k)
    if kind == "ckpt":
        return ProcessPolicy.checkpointing(k, 2)
    if kind == "repl":
        return ProcessPolicy.replication(k)
    if kind == "hybrid-reexec":
        return ProcessPolicy.replication_and_checkpointing(k, 1)
    if kind == "hybrid-ckpt":
        return ProcessPolicy.replication_and_checkpointing(
            k, 1, checkpoints=2)
    # "mixed": every policy shape, round robin
    return (ProcessPolicy.re_execution(k),
            ProcessPolicy.checkpointing(k, 1),
            ProcessPolicy.replication(k),
            ProcessPolicy.replication_and_checkpointing(
                k, 1, checkpoints=1))[index % 4]


class TestEstimateBytePins:
    """SHA-256 over every :class:`FtEstimate` field, over a grid.

    The grid tests compare the estimator with the exact scheduler and
    the simulator, and ``reevaluate`` with a full compute; these pins
    check the estimate's bits, so a change to the scheduling loop, the
    slack pools or the bus arithmetic that moves one float fails here.
    Floats enter as ``float.hex``, timings in the dict's key order
    (the pop order the incremental replay relies on). Each case is
    ``(processes, nodes, seed, k, policies, slack sharing, bus
    contention, digest)`` on a generated workload with the greedy
    initial mapping. The first rows are the ``synth-search`` (20
    processes, 4 nodes, k=2), ``dse-exact`` (3/2, k=2) and
    ``campaign-des`` (8/2, k=3) shapes.
    """

    CASES = [
        (20, 4, 1, 2, "reexec", "max", True,
         "cb6a9efa3947939f5925e86bbc55144de5332dd36f807fd703ed8fc515ed4238"),
        (20, 4, 2, 2, "mixed", "budgeted", False,
         "79dce8e54560cf719c1b01acd6bf346d25987b15a578c5176af50e480ebe159e"),
        (3, 2, 1, 2, "ckpt", "max", False,
         "ad0e6e9a61a5462e90f3ccf70a9783ce83a6d0415b9a38cc3dc0e79263911bef"),
        (3, 2, 2, 2, "repl", "budgeted", True,
         "604561ecf28086769f487727f43a3f651458eab9cfaeb9d3ffde67efad80cd35"),
        (8, 2, 1, 3, "mixed", "max", False,
         "09c725296232d7077c65cdad81eca3bee55e37f0081978f5da97dfe896b434e6"),
        (8, 2, 3, 3, "hybrid-ckpt", "budgeted", True,
         "23a0373ff1f1046581e1691d4336720f2e14cb7f1e4fce675177218e331f1c86"),
        (5, 2, 4, 1, "reexec", "budgeted", False,
         "ddb4f09a9862b7ebbfe728d0912ae5233e978e22cd062ca4c8a01d049fa79db7"),
        (5, 3, 5, 1, "ckpt", "max", True,
         "96c336c2aea3c4219c982d4e424830a440328f8c91dcdb8d82a73babb6e87a92"),
        (6, 2, 6, 2, "hybrid-reexec", "max", True,
         "58799f28ab8d5c6a61d4526f565a1a99192d101bc7a90c461ecdec0ef71d870b"),
        (6, 3, 7, 3, "repl", "max", False,
         "993ba3a7b5a405d5095338b5febbc94dd42c2ae4fa7edfe51245347ea56dd477"),
        (8, 2, 8, 3, "hybrid-reexec", "budgeted", False,
         "2a85b817fc67640f95f40fe3fd7cecccd87be0552aafb9e21c90b20f9a477cec"),
        (12, 3, 9, 2, "hybrid-ckpt", "max", True,
         "78f19b2a4ec5a0d950355042a1a3c37ea1b1cb28195ddea40324205dff275a80"),
    ]

    @staticmethod
    def _digest(estimate) -> str:
        lines = [estimate.schedule_length.hex(),
                 estimate.ff_length.hex(),
                 float(estimate.deadline).hex(),
                 ",".join(estimate.local_deadline_violations)]
        for (name, copy), timing in estimate.timings.items():
            lines.append(f"{name}/{copy} {timing.node} "
                         f"{timing.start.hex()} "
                         f"{timing.ff_finish.hex()} "
                         f"{timing.wc_finish.hex()}")
        text = "\n".join(lines)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize(
        "processes,nodes,seed,k,kind,mode,contention,digest", CASES,
        ids=[f"{c[0]}p{c[1]}n-s{c[2]}-k{c[3]}-{c[4]}-{c[5]}-"
             f"{'bus' if c[6] else 'nobus'}" for c in CASES])
    def test_estimate_bytes(self, processes, nodes, seed, k, kind,
                            mode, contention, digest):
        app, arch = generate_workload(GeneratorConfig(
            processes=processes, nodes=nodes, seed=seed))
        policies = PolicyAssignment({
            name: _pin_policy(kind, k, index)
            for index, name in enumerate(app.process_names)})
        mapping = initial_mapping(app, arch, policies)
        estimate = estimate_ft_schedule(
            app, arch, mapping, policies, FaultModel(k=k),
            bus_contention=contention, slack_sharing=mode)
        assert self._digest(estimate) == digest
