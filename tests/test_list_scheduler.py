"""Unit tests for the partial-critical-path (PCP) priorities: the
priority function of the list schedulers (the slack-sharing estimator
and the exact conditional scheduler)."""

from __future__ import annotations

import pytest

from repro.schedule import partial_critical_path_priorities


class TestPriorities:
    def test_sink_priority_is_own_wcet(self, chain_app, two_nodes):
        prio = partial_critical_path_priorities(chain_app, two_nodes)
        assert prio["P3"] == pytest.approx(10.0)

    def test_priority_decreases_downstream(self, chain_app, two_nodes):
        prio = partial_critical_path_priorities(chain_app, two_nodes)
        assert prio["P1"] > prio["P2"] > prio["P3"]

    def test_comm_penalty_counted_per_edge(self, chain_app, two_nodes):
        base = partial_critical_path_priorities(chain_app,
                                                comm_penalty=0.0)
        with_comm = partial_critical_path_priorities(chain_app,
                                                     comm_penalty=10.0)
        assert with_comm["P1"] == pytest.approx(base["P1"] + 20.0)

    def test_parallel_branches_take_max(self, fork_join_app):
        prio = partial_critical_path_priorities(fork_join_app,
                                                comm_penalty=0.0)
        # P1 tail = max(P2, P3) + own = 15 + 8 + 10.
        assert prio["P1"] == pytest.approx(33.0)
