"""Invariants of the compiled schedule view both table executors read."""

from __future__ import annotations

import pytest

from repro.model import FaultModel
from repro.policies import PolicyAssignment
from repro.schedule import synthesize_schedule
from repro.schedule.compiled import KIND_RANK, CompiledSchedule
from repro.schedule.table import EntryKind
from repro.synthesis import initial_mapping
from repro.workloads import GeneratorConfig, generate_workload
from tests.test_conditional_scheduler import _grid_policy, _grid_transparency

#: ``(processes, seed, k, policies, transparency)`` rows of the table
#: byte pins' grid: re-execution, replicas, checkpointed hybrids.
GRID = [
    (3, 1, 2, "reexec", "none"),
    (3, 1, 2, "repl", "none"),
    (3, 6, 2, "hybrid", "full"),
    (4, 5, 3, "mixed", "messages"),
]


def _grid_design(processes, seed, k, kind, mode):
    app, arch = generate_workload(GeneratorConfig(
        processes=processes, nodes=2, seed=seed))
    policies = PolicyAssignment({
        name: _grid_policy(kind, k, index)
        for index, name in enumerate(app.process_names)})
    mapping = initial_mapping(app, arch, policies)
    schedule = synthesize_schedule(
        app, arch, mapping, policies, FaultModel(k=k),
        _grid_transparency(mode, app))
    return app, arch, mapping, policies, schedule


@pytest.fixture(scope="module", params=["fig5"] + [
    f"{c[0]}p-s{c[1]}-k{c[2]}-{c[3]}-{c[4]}" for c in GRID])
def design(request, fig5_design):
    if request.param == "fig5":
        app, arch, mapping, policies, _fm, schedule = fig5_design
        return app, arch, mapping, policies, schedule
    [case] = [c for c in GRID
              if request.param == f"{c[0]}p-s{c[1]}-k{c[2]}-{c[3]}-{c[4]}"]
    return _grid_design(*case)


class TestCompiledSchedule:
    def test_entries_are_the_stable_start_kind_sort(self, design):
        schedule = design[-1]
        view = CompiledSchedule(*design)
        expected = sorted(schedule.entries,
                          key=lambda e: (e.start, KIND_RANK[e.kind]))
        assert len(view.entries) == len(schedule.entries)
        assert all(a is b for a, b in zip(view.entries, expected))

    def test_ranks_are_the_kind_ranks(self, design):
        view = CompiledSchedule(*design)
        assert view.rank == [KIND_RANK[entry.kind]
                             for entry in view.entries]

    def test_attempt_ids_are_dense_in_first_mention_order(self, design):
        view = CompiledSchedule(*design)
        # Within an entry, the guard's literals come before its own
        # attempt.
        mentions: dict = {}
        for entry in view.entries:
            for literal in entry.guard.literals:
                mentions.setdefault(literal.attempt)
            if entry.kind is not EntryKind.MESSAGE:
                mentions.setdefault(entry.attempt)
        assert view.attempts == list(mentions)
        aid_of = {attempt: aid for aid, attempt in enumerate(view.attempts)}
        for position, entry in enumerate(view.entries):
            assert view.guard[position] == tuple(
                (aid_of[literal.attempt], literal.faulty)
                for literal in entry.guard.literals)
            assert view.attempt[position] == (
                -1 if entry.kind is EntryKind.MESSAGE
                else aid_of[entry.attempt])

    def test_observing_nodes_and_copies(self, design):
        app, _arch, mapping, policies, _schedule = design
        view = CompiledSchedule(*design)
        copies = [(process, index) for process, policy in policies.items()
                  for index in range(len(policy.copies))]
        assert list(view.copy_of) == copies
        assert view.copy_node == [
            view.node_names.index(mapping.node_of(*key)) for key in copies]
        for position, entry in enumerate(view.entries):
            node = view.node_names[view.node[position]]
            if entry.kind is EntryKind.MESSAGE:
                producer = (app.message(entry.message).src,
                            entry.producer_copy)
                assert view.copy[position] == copies.index(producer)
                assert node == mapping.node_of(*producer)
                continue
            key = (entry.attempt.process, entry.attempt.copy)
            assert view.copy[position] == copies.index(key)
            if entry.kind is EntryKind.ATTEMPT:
                assert node == entry.location
            else:
                assert node == mapping.node_of(*key)

    def test_two_builds_are_equal(self, design):
        first, second = CompiledSchedule(*design), CompiledSchedule(*design)
        assert vars(first) == vars(second)
