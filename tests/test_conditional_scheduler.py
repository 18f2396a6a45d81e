"""Unit tests for the exact conditional scheduler (paper §5)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.errors import ContextExplosionError
from repro.ftcpg import count_fault_plans
from repro.model import (
    Application,
    Architecture,
    BusSpec,
    FaultModel,
    Message,
    Node,
    Process,
    Transparency,
)
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.schedule import CopyMapping, synthesize_schedule
from repro.schedule.conditional import ConditionalScheduler
from repro.schedule.serialization import schedule_to_dict
from repro.schedule.table import BUS, EntryKind
from repro.synthesis import initial_mapping
from repro.workloads import GeneratorConfig, generate_workload


def reexec(app, k):
    return PolicyAssignment.uniform(app, ProcessPolicy.re_execution(k))


class TestSingleProcess:
    def _schedule(self, k: int, recoveries: int | None = None):
        app = Application([Process("P1", {"N1": 10.0}, mu=2.0)],
                          deadline=100)
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(
                recoveries if recoveries is not None else k))
        mapping = CopyMapping({("P1", 0): "N1"})
        arch = Architecture([Node("N1")])
        return synthesize_schedule(app, arch, mapping, policies,
                                   FaultModel(k=k))

    def test_k0_single_entry(self):
        schedule = self._schedule(0, recoveries=0)
        assert schedule.scenario_count == 1
        assert len(schedule.entries) == 1
        entry = schedule.entries[0]
        assert entry.start == 0.0
        assert entry.duration == 10.0  # no alpha without faults
        assert schedule.worst_case_length == 10.0

    def test_k1_two_scenarios(self):
        schedule = self._schedule(1)
        assert schedule.scenario_count == 2
        # Retry starts at the detection point; duration includes mu.
        retries = [e for e in schedule.entries
                   if e.attempt.attempt == 2]
        assert len(retries) == 1
        assert retries[0].duration == pytest.approx(12.0)  # mu + C
        assert schedule.worst_case_length == pytest.approx(22.0)

    def test_k2_chain(self):
        schedule = self._schedule(2)
        assert schedule.scenario_count == 3
        assert schedule.fault_free_length == pytest.approx(10.0)
        assert schedule.worst_case_length == pytest.approx(34.0)

    def test_leaf_guards_are_distinct(self):
        schedule = self._schedule(2)
        guards = {str(leaf.guard) for leaf in schedule.leaves}
        assert len(guards) == 3

    def test_context_cap(self):
        app = Application([Process("P1", {"N1": 10.0}, mu=2.0)],
                          deadline=1000)
        policies = reexec(app, 3)
        mapping = CopyMapping({("P1", 0): "N1"})
        arch = Architecture([Node("N1")])
        with pytest.raises(ContextExplosionError):
            synthesize_schedule(app, arch, mapping, policies,
                                FaultModel(k=3), max_contexts=2)


class TestScenarioCoverage:
    def test_leaves_match_observable_scenarios(self, fork_join_app,
                                               two_nodes):
        policies = reexec(fork_join_app, 2)
        mapping = CopyMapping.from_process_map(
            {"P1": "N1", "P2": "N1", "P3": "N2", "P4": "N2"}, policies)
        schedule = synthesize_schedule(fork_join_app, two_nodes, mapping,
                                       policies, FaultModel(k=2))
        # With re-execution every fault is observable: leaves == plans.
        expected = count_fault_plans(fork_join_app, policies, 2)
        assert schedule.scenario_count == expected

    def test_worst_case_is_max_leaf(self, fork_join_app, two_nodes):
        policies = reexec(fork_join_app, 1)
        mapping = CopyMapping.from_process_map(
            {"P1": "N1", "P2": "N1", "P3": "N2", "P4": "N2"}, policies)
        schedule = synthesize_schedule(fork_join_app, two_nodes, mapping,
                                       policies, FaultModel(k=1))
        assert schedule.worst_case_length == pytest.approx(
            max(leaf.makespan for leaf in schedule.leaves))
        assert schedule.fault_free_length <= schedule.worst_case_length


class TestBusBehaviour:
    def _cross_app(self):
        app = Application(
            [Process("A", {"N1": 10.0}, mu=1.0),
             Process("B", {"N2": 10.0}, mu=1.0)],
            [Message("m", "A", "B", size_bytes=4)],
            deadline=500)
        arch = Architecture([Node("N1"), Node("N2")],
                            BusSpec(("N1", "N2"), slot_length=2.0))
        return app, arch

    def test_message_transmitted_after_producer(self):
        app, arch = self._cross_app()
        policies = reexec(app, 1)
        mapping = CopyMapping.from_process_map({"A": "N1", "B": "N2"},
                                               policies)
        schedule = synthesize_schedule(app, arch, mapping, policies,
                                       FaultModel(k=1))
        messages = [e for e in schedule.entries
                    if e.kind is EntryKind.MESSAGE]
        assert messages
        for entry in messages:
            assert entry.location == BUS
            assert entry.frames

    def test_conditions_are_broadcast(self):
        app, arch = self._cross_app()
        policies = reexec(app, 1)
        mapping = CopyMapping.from_process_map({"A": "N1", "B": "N2"},
                                               policies)
        schedule = synthesize_schedule(app, arch, mapping, policies,
                                       FaultModel(k=1))
        broadcasts = [e for e in schedule.entries
                      if e.kind is EntryKind.BROADCAST]
        # A's first attempt and B's first attempt are both conditional.
        assert len({e.attempt for e in broadcasts}) == 2

    def test_consumer_start_after_guard_known(self):
        app, arch = self._cross_app()
        policies = reexec(app, 1)
        mapping = CopyMapping.from_process_map({"A": "N1", "B": "N2"},
                                               policies)
        schedule = synthesize_schedule(app, arch, mapping, policies,
                                       FaultModel(k=1), compress=False)
        broadcast_arrival = {
            e.attempt: e.end for e in schedule.entries
            if e.kind is EntryKind.BROADCAST
        }
        for entry in schedule.entries:
            if entry.kind is not EntryKind.ATTEMPT:
                continue
            for literal in entry.guard.literals:
                producer_node = mapping.node_of(literal.attempt.process,
                                                literal.attempt.copy)
                if producer_node != entry.location:
                    assert literal.attempt in broadcast_arrival
                    assert entry.start >= \
                        broadcast_arrival[literal.attempt] - 1e-9

    def test_no_bus_for_colocated(self):
        app = Application(
            [Process("A", {"N1": 10.0}, mu=1.0),
             Process("B", {"N1": 10.0}, mu=1.0)],
            [Message("m", "A", "B", size_bytes=4)],
            deadline=500)
        arch = Architecture([Node("N1"), Node("N2")],
                            BusSpec(("N1", "N2"), slot_length=2.0))
        policies = reexec(app, 1)
        mapping = CopyMapping.from_process_map({"A": "N1", "B": "N1"},
                                               policies)
        schedule = synthesize_schedule(app, arch, mapping, policies,
                                       FaultModel(k=1))
        assert not [e for e in schedule.entries
                    if e.kind is EntryKind.MESSAGE]


class TestReplicationScheduling:
    def test_replicas_run_in_parallel(self, two_nodes):
        app = Application([Process("A", {"N1": 10.0, "N2": 10.0},
                                   mu=1.0)], deadline=500)
        policies = PolicyAssignment.uniform(app,
                                            ProcessPolicy.replication(1))
        mapping = CopyMapping({("A", 0): "N1", ("A", 1): "N2"})
        schedule = synthesize_schedule(app, two_nodes, mapping, policies,
                                       FaultModel(k=1))
        starts = [e.start for e in schedule.entries
                  if e.kind is EntryKind.ATTEMPT]
        assert starts == [0.0, 0.0]
        # Fail-silent replication: no conditional branching at all.
        assert schedule.scenario_count == 1

    def test_consumer_waits_for_all_copies(self, two_nodes):
        app = Application(
            [Process("A", {"N1": 10.0, "N2": 25.0}),
             Process("B", {"N1": 5.0, "N2": 5.0})],
            [Message("m", "A", "B", size_bytes=4)],
            deadline=500)
        policies = PolicyAssignment.build(
            app, ProcessPolicy.replication(1),
            {"B": ProcessPolicy.re_execution(1)})
        mapping = CopyMapping({("A", 0): "N1", ("A", 1): "N2",
                               ("B", 0): "N1"})
        schedule = synthesize_schedule(app, two_nodes, mapping, policies,
                                       FaultModel(k=1))
        b_first = min(e.start for e in schedule.entries
                      if e.kind is EntryKind.ATTEMPT
                      and e.attempt.process == "B")
        assert b_first >= 25.0


class TestCompression:
    def test_compress_merges_condition_independent_entries(self,
                                                           two_nodes):
        # P2 on the other node does not depend on P1; its start should
        # not fragment over P1's conditions after compression.
        app = Application(
            [Process("P1", {"N1": 10.0}, mu=1.0),
             Process("P2", {"N2": 10.0}, mu=1.0)],
            deadline=500)
        policies = reexec(app, 1)
        mapping = CopyMapping.from_process_map({"P1": "N1", "P2": "N2"},
                                               policies)
        raw = synthesize_schedule(app, two_nodes, mapping, policies,
                                  FaultModel(k=1), compress=False)
        compressed = raw.compressed()
        assert len(compressed.entries) <= len(raw.entries)
        p2_first = [e for e in compressed.entries
                    if e.kind is EntryKind.ATTEMPT
                    and e.attempt.process == "P2"
                    and e.attempt.attempt == 1]
        assert len(p2_first) == 1
        assert p2_first[0].guard.is_unconditional


def _grid_policy(kind: str, k: int, index: int) -> ProcessPolicy:
    if kind == "reexec":
        return ProcessPolicy.re_execution(k)
    if kind == "ckpt":
        return ProcessPolicy.checkpointing(k, 2)
    if kind == "repl":
        return ProcessPolicy.replication(k)
    if kind == "hybrid":
        return ProcessPolicy.replication_and_checkpointing(
            k, 1, checkpoints=2)
    # "mixed": re-execution, checkpointing and a hybrid, round robin
    return (ProcessPolicy.re_execution(k),
            ProcessPolicy.checkpointing(k, 2),
            ProcessPolicy.replication_and_checkpointing(
                k, 1, checkpoints=1))[index % 3]


def _grid_transparency(mode: str, app: Application) -> Transparency:
    if mode == "none":
        return Transparency.none()
    if mode == "full":
        return Transparency.full(app)
    if mode == "messages":
        return Transparency.messages_only(app)
    # "partial": every other process and every other message frozen
    return Transparency(app.process_names[::2], app.message_names[::2])


class TestTableBytePins:
    """SHA-256 of ``schedule_to_dict`` (entries and leaves) over a grid.

    ``tests/test_oracle.py`` checks what the tables mean; these pins
    check their bytes, so a change to the scheduler's bookkeeping that
    reorders, re-times or re-guards one entry fails here. Each case is
    ``(processes, seed, k, policies, transparency, fixpoint passes,
    raw digest, compressed digest)`` on a generated
    2-node workload with the greedy initial mapping. The first four
    rows are the ``dse-exact`` shape (3 processes, k=2).
    """

    CASES = [
        (3, 1, 2, "reexec", "none", 1,
         "279af9d3e5e466995defdf3e5a49832cb3ae6702f57e86f48971ec1a395a16a2",
         "279af9d3e5e466995defdf3e5a49832cb3ae6702f57e86f48971ec1a395a16a2"),
        (3, 1, 2, "ckpt", "full", 2,
         "e791dd6df61d6503d4175f685defe07437206b98e5d0fce1d100e43ecd989aa0",
         "bce6bd0a1223b583297d0e58e97e0c53d7f6025e4250ac107f4c57005e40d894"),
        (3, 1, 2, "repl", "none", 1,
         "993e12e956b2f510c9948ab4d30cdf8626ae7474581d20b347b7f30fd5ac7d13",
         "993e12e956b2f510c9948ab4d30cdf8626ae7474581d20b347b7f30fd5ac7d13"),
        (3, 1, 2, "hybrid", "partial", 2,
         "6d5cd133233de8270aaf5e00cec0f263da477062966146cb7d98c055de718ac4",
         "c10474428cd8c48e5ae3a5b3662776f9bc77c7266848f5b77540948e0c07544f"),
        (3, 2, 2, "mixed", "full", 2,
         "704f0686798e8d44b931744584d5490a5933c69474e6023fd06b6ed00a7d93bd",
         "cdd9b471b1b7b021f269869737e947ffa7e24c957282a1bb0c0c8c2af22551ea"),
        (3, 6, 2, "hybrid", "full", 3,
         "9181a65407965506466416e99404e64c9f37d4e6c4b6c7f7a8c9416ddd90344c",
         "e990bfa3ce43a71eee84e225e18229180c8e81d1b5569462068b914994f1a5ee"),
        (3, 8, 2, "mixed", "partial", 9,
         "c1ceee6e81253ba9e7c8d741d419ef751f0f26fc6e868bca8db1eb4d55fcb3e5",
         "74d9c58eb701f8f4fd18f778eb16bbee74b524f4bb4cd22ced0b1d91a11c6fdc"),
        (4, 3, 1, "reexec", "full", 2,
         "277c63e9ea46b928e3db39c46d2f0cddc25a0723b159ee79c412aec88ca0cb80",
         "0a15724adec4ffab00838ad960fd9ef7a72a6a6ee64d24aad50fb35fdd5c7785"),
        (4, 7, 1, "ckpt", "messages", 2,
         "56c53d133137967db077c2df82b869498e2454cb284c8d00d828185f83f2e2c8",
         "7e26474469ec3884e3dcc8e6df7dde778974aec510051ed6026a1eca5581dd6d"),
        (3, 4, 3, "mixed", "partial", 11,
         "972a05fa3b06e9d7dbc93f51dcff1faff64871113b7623e14fbe376102e1698e",
         "eac1254baebdb0557ec7b9cdba215df71b4749db55f4c620064247e4b0135e95"),
        (4, 5, 3, "mixed", "messages", 1,
         "27a46f0a322bb643f70ad888455402d97277fe10a12ee488f0049d15b10baca9",
         "2ebd7f84b87011786cb90394a8798f6717d2492fb385ea7eda39bcc7ef24f5a6"),
        (4, 3, 3, "ckpt", "partial", 2,
         "fc761aabef15fd47d262384819762d718ee32b6cb727804229157a354ceb745c",
         "79ba1d81a02a6a82d580b138f41a52b72621b372e4b4f9131ff83604822ebb89"),
    ]

    @staticmethod
    def _digest(schedule) -> str:
        text = json.dumps(schedule_to_dict(schedule), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize(
        "processes,seed,k,kind,mode,passes,raw,compressed", CASES,
        ids=[f"{c[0]}p-s{c[1]}-k{c[2]}-{c[3]}-{c[4]}" for c in CASES])
    def test_table_bytes(self, monkeypatch, processes, seed, k, kind,
                         mode, passes, raw, compressed):
        app, arch = generate_workload(GeneratorConfig(
            processes=processes, nodes=2, seed=seed))
        policies = PolicyAssignment({
            name: _grid_policy(kind, k, index)
            for index, name in enumerate(app.process_names)})
        mapping = initial_mapping(app, arch, policies)
        run_pass = ConditionalScheduler._run_pass
        count = []

        def counted(scheduler):
            count.append(None)
            run_pass(scheduler)

        monkeypatch.setattr(ConditionalScheduler, "_run_pass", counted)
        schedule = synthesize_schedule(
            app, arch, mapping, policies, FaultModel(k=k),
            _grid_transparency(mode, app), compress=False)
        assert len(count) == passes
        assert self._digest(schedule) == raw
        assert self._digest(schedule.compressed()) == compressed
