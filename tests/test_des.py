"""Event-driven simulator semantics: the oracle seam and the
DES-only fault axes.

Table-expressible scenarios must be **bit-identical** between
:class:`~repro.des.core.DesSimulator` and the table-replay oracle —
full :class:`~repro.runtime.simulator.SimulationResult` equality. The
DES-only axes (intermittent windows, corrupted slots, release jitter)
have no oracle; their unit semantics are pinned here against the
paper's Fig. 5 design, and their full traces in
``tests/test_golden_traces.py``.
"""

from __future__ import annotations

import pytest

from repro.des import DesSimulator
from repro.des.events import DesEventKind
from repro.des.online import OnlineEngine
from repro.des.queue import EventQueue
from repro.errors import ValidationError
from repro.ftcpg.scenarios import (
    DesFaultPlan,
    FaultPlan,
    FaultWindow,
    SlotFault,
    iter_fault_plans,
)
from repro.runtime.simulator import simulate


def _kinds(run, kind):
    return [event for event in run.events if event.kind is kind]


class TestOracleSeam:
    """Table-expressible plans: DES == replay, bit for bit."""

    def test_every_fig5_scenario_is_bit_identical(self, fig5_design):
        app, arch, mapping, policies, fm, schedule = fig5_design
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        for plan in iter_fault_plans(app, policies, fm.k):
            expected = simulate(app, arch, mapping, policies, fm,
                                schedule, plan)
            assert des.simulate(plan) == expected, plan.describe()

    def test_bare_des_plan_unwraps_to_its_base(self, fig5_design):
        app, arch, mapping, policies, fm, schedule = fig5_design
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        base = next(iter_fault_plans(app, policies, fm.k))
        wrapped = DesFaultPlan(base=base)
        assert wrapped.is_table_expressible
        result = des.simulate(wrapped)
        # Reported against the plain base plan, bit-comparable with
        # the oracle's result.
        assert result == des.simulate(base)
        assert result.plan == base

    def test_table_path_produces_an_event_log(self, fig5_design):
        app, arch, mapping, policies, fm, schedule = fig5_design
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        run = des.run(FaultPlan({}))
        assert run.events
        starts = _kinds(run, DesEventKind.ATTEMPT_START)
        assert any("P1" in event.label for event in starts)
        times = [event.time for event in run.events]
        assert times == sorted(times)


class TestDesFaultPlan:
    """The extended plan type: expressibility, budget, description."""

    def test_expressibility_and_totals(self):
        base = FaultPlan({})
        assert DesFaultPlan(base=base).is_table_expressible
        assert DesFaultPlan(base=base,
                            jitter={"P1": 0.0}).is_table_expressible
        window = FaultWindow("N1", 4.0, 9.0)
        extended = DesFaultPlan(base=base, windows=(window,),
                                slot_faults=(SlotFault(9, 0),),
                                jitter={"P1": 3.0})
        assert not extended.is_table_expressible
        # Jitter is a perturbation, not a fault: only windows and
        # corrupted slots count against the description of severity.
        assert extended.total_faults == 2
        assert not extended.is_fault_free()
        assert "win[N1@[4,9)]" in extended.describe()
        assert "slot[r9s0]" in extended.describe()
        assert "jitter[P1+3]" in extended.describe()

    def test_window_validation_and_hits(self):
        with pytest.raises(Exception):
            FaultWindow("N1", 9.0, 4.0)
        window = FaultWindow("N1", 4.0, 9.0)
        assert window.hits(0.0, 30.0)
        assert window.hits(8.0, 12.0)
        assert not window.hits(9.0, 12.0)  # [t_on, t_off) is half-open
        assert not window.hits(0.0, 4.0)

    @pytest.mark.parametrize("t_on, t_off", [
        (200.0, float("inf")), (float("-inf"), 9.0),
        (float("nan"), 9.0), (4.0, float("nan"))])
    def test_non_finite_window_rejected(self, t_on, t_off):
        """A window open until ``inf`` once hung the forward engine:
        its fault-off event anchored a cluster at ``inf``."""
        with pytest.raises(ValidationError, match="finite"):
            FaultWindow("N1", t_on, t_off)

    @pytest.mark.parametrize("delay", [float("inf"), float("nan")])
    def test_non_finite_jitter_rejected(self, delay):
        with pytest.raises(ValidationError, match="finite"):
            DesFaultPlan(base=FaultPlan({}), jitter={"P1": delay})

    @pytest.mark.parametrize("axes", [
        pytest.param(lambda: {"jitter": {"P1": -3.0}},
                     id="negative-jitter"),
        pytest.param(lambda: {"slot_faults": (SlotFault(-1, 0),)},
                     id="negative-round"),
        pytest.param(lambda: {"slot_faults": (SlotFault(0, -5),)},
                     id="negative-slot"),
        # Fig. 5 has 2 slots per TDMA round.
        pytest.param(lambda: {"slot_faults": (SlotFault(0, 7),)},
                     id="slot-beyond-round"),
        pytest.param(lambda: {"jitter": {"PX": 3.0}},
                     id="unknown-process"),
        pytest.param(lambda: {"windows": (FaultWindow("N9", 0.0, 500.0),)},
                     id="unknown-node"),
    ])
    def test_axis_value_naming_nothing_rejected(self, fig5_design,
                                                axes):
        """Each of these values once ran forward and reported ok,
        the slot and window cases counted as injected faults."""
        des = DesSimulator(*fig5_design)
        with pytest.raises(ValidationError):
            des.run(DesFaultPlan(base=FaultPlan({}), **axes()))

    @pytest.mark.parametrize("plan", [
        pytest.param(lambda: FaultPlan({("PX", 0): (1,)}),
                     id="unknown-process"),
        # Fig. 5's P1 has one copy and one segment.
        pytest.param(lambda: FaultPlan({("P1", 5): (1,)}),
                     id="unknown-copy"),
        pytest.param(lambda: FaultPlan({("P1", 0): (0, 1)}),
                     id="unknown-segment"),
        pytest.param(lambda: DesFaultPlan(base=FaultPlan({}),
                                          jitter={"PX": 0.0}),
                     id="table-expressible-unknown-jitter"),
    ])
    def test_plan_naming_nothing_rejected(self, fig5_design, plan):
        """Each of these plans used to replay fault-free, ok with
        makespan 159.0, although the first three count one fault."""
        des = DesSimulator(*fig5_design)
        with pytest.raises(ValidationError):
            des.run(plan())

    @pytest.mark.parametrize("faults", [
        pytest.param({("PX", 0): (1,)}, id="unknown-process"),
        pytest.param({("P1", 5): (1,)}, id="unknown-copy"),
        pytest.param({("P1", 0): (0, 1)}, id="unknown-segment"),
    ])
    def test_forward_base_plan_naming_nothing_rejected(self, fig5_design,
                                                       faults):
        engine = OnlineEngine(*fig5_design)
        with pytest.raises(ValidationError):
            engine.run(DesFaultPlan(base=FaultPlan(faults),
                                    windows=(FaultWindow("N1", 4.0, 9.0),)))

    def test_budget_error_matches_replay_wording(self, fig5_design):
        app, arch, mapping, policies, fm, schedule = fig5_design
        overloaded = FaultPlan({("P1", 0): (fm.k + 1,)})
        plan = DesFaultPlan(base=overloaded,
                            windows=(FaultWindow("N1", 0.0, 1.0),))
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        result = des.simulate(plan)
        assert result.errors[0] == (
            f"plan injects {fm.k + 1} faults, budget is {fm.k}")


class TestDesOnlyAxes:
    """Forward execution under the axes table replay cannot express."""

    def test_intermittent_window_forces_reexecution(self, fig5_design):
        app, arch, mapping, policies, fm, schedule = fig5_design
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        # Fig. 5: P1 executes on N1 over [0, 30); the window covers
        # its start, clears long before the re-execution at 30.
        plan = DesFaultPlan(base=FaultPlan({}),
                            windows=(FaultWindow("N1", 4.0, 9.0),))
        run = des.run(plan)
        finishes = _kinds(run, DesEventKind.ATTEMPT_FINISH)
        assert any(event.label == "P1 fault (window)"
                   for event in finishes)
        assert any("P1^1/2" in event.label
                   for event in _kinds(run, DesEventKind.ATTEMPT_START))
        assert _kinds(run, DesEventKind.FAULT_ON)
        assert _kinds(run, DesEventKind.FAULT_OFF)
        # The design tolerates it: the retry lands inside the slack.
        assert run.result.ok, run.result.errors[:1]
        assert "P1" in run.result.completed

    def test_corrupted_slot_retransmits_and_flags_late_input(
            self, fig5_design):
        app, arch, mapping, policies, fm, schedule = fig5_design
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        # Fig. 5: message m1 rides r9s0 at [36, 38); corrupting that
        # occurrence forces a retransmission in N1's next free slot,
        # so m1 arrives after its consumer P4 started at 38 — exactly
        # the finding the axis exists to surface.
        plan = DesFaultPlan(base=FaultPlan({}),
                            slot_faults=(SlotFault(9, 0),))
        run = des.run(plan)
        lost = _kinds(run, DesEventKind.FRAME_LOST)
        assert any(event.label == "m1 r9s0" for event in lost)
        sent = _kinds(run, DesEventKind.FRAME_SENT)
        assert any(event.label.endswith("(retransmit)")
                   for event in sent)
        delivered = _kinds(run, DesEventKind.MESSAGE_DELIVERED)
        assert any(event.time > 38.0 and event.label.startswith("m1")
                   for event in delivered)
        assert any("without input 'm1'" in error
                   for error in run.result.errors)

    def test_one_simulator_runs_each_plan_as_if_fresh(self, fig5_design):
        """The forward engine is compiled once per design and reused:
        nothing one plan writes (knowledge, busy times, deliveries,
        retransmission reservations) may reach the next."""
        app, arch, mapping, policies, fm, schedule = fig5_design
        plans = [
            DesFaultPlan(base=FaultPlan({}),
                         slot_faults=(SlotFault(9, 0),)),
            DesFaultPlan(base=FaultPlan({}),
                         windows=(FaultWindow("N1", 4.0, 9.0),)),
            DesFaultPlan(base=FaultPlan({}), jitter={"P1": 3.0}),
        ]
        shared = DesSimulator(app, arch, mapping, policies, fm, schedule)
        for plan in plans + plans:
            fresh = DesSimulator(app, arch, mapping, policies, fm,
                                 schedule)
            assert shared.run(plan) == fresh.run(plan), plan.describe()

    def test_corrupting_an_idle_slot_changes_nothing(self, fig5_design):
        app, arch, mapping, policies, fm, schedule = fig5_design
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        # Fig. 5's first bus frame is r8s0: rounds 0-7 carry nothing,
        # so a corrupted occurrence there never meets a frame.
        plan = DesFaultPlan(base=FaultPlan({}),
                            slot_faults=(SlotFault(0, 0),))
        run = des.run(plan)
        assert not _kinds(run, DesEventKind.FRAME_LOST)
        assert run.result.ok, run.result.errors[:1]

    def test_release_jitter_flags_the_immovable_table(self, fig5_design):
        app, arch, mapping, policies, fm, schedule = fig5_design
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        plan = DesFaultPlan(base=FaultPlan({}), jitter={"P1": 3.0})
        run = des.run(plan)
        assert _kinds(run, DesEventKind.JITTER)
        assert any("P1 starts before its release 3" in error
                   for error in run.result.errors)
        # Zero-delay jitter keeps the plan table-expressible: no
        # events beyond the replayed table, no errors.
        calm = des.run(DesFaultPlan(base=FaultPlan({}),
                                    jitter={"P1": 0.0}))
        assert calm.result.ok, calm.result.errors[:1]


class TestLiveWalk:
    """The forward engine guard-checks only the entries its guard trie
    wakes; the full check in ``_activate`` still decides what fires."""

    @staticmethod
    def _record(monkeypatch):
        """Record the stream positions woken (with the queue cursor at
        the time) and the entries ``_activate`` guard-checks."""
        woken, checked = [], []
        wake, activate = EventQueue.wake, OnlineEngine._activate

        def recording_wake(queue, position):
            woken.append((position, queue._cursor))
            wake(queue, position)

        def recording_activate(engine, position):
            checked.append(engine._entries[position])
            activate(engine, position)

        monkeypatch.setattr(EventQueue, "wake", recording_wake)
        monkeypatch.setattr(OnlineEngine, "_activate", recording_activate)
        return woken, checked

    @staticmethod
    def _entry(schedule, label, start):
        [entry] = [e for e in schedule.entries
                   if e.attempt is not None and e.start == start
                   and e.kind.name == "ATTEMPT"
                   and e.attempt.label() == label]
        return entry

    def test_checks_only_woken_entries(self, fig5_design, monkeypatch):
        app, arch, mapping, policies, fm, schedule = fig5_design
        woken, checked = self._record(monkeypatch)
        engine = OnlineEngine(app, arch, mapping, policies, fm, schedule)
        engine.run(DesFaultPlan(base=FaultPlan({}),
                                windows=(FaultWindow("N1", 4.0, 9.0),)))
        assert len(checked) == len({position for position, _ in woken})
        assert len(checked) < len(schedule.entries) // 2

    def test_woken_entry_with_late_knowledge_does_not_fire(
            self, fig5_design, monkeypatch):
        """Fig. 5: a window fails P1 on N1 at 30, and its retry
        ``P1^1/2`` (guard: P1 faulty) is due at 30. With every
        observation recorded 1.0 late, the trie — which ignores
        knowledge times — still wakes the retry, but the value is
        known only after ``start + TIME_EPS``: it must not fire."""
        app, arch, mapping, policies, fm, schedule = fig5_design
        retry = self._entry(schedule, "P1^1/2", 30.0)
        plan = DesFaultPlan(base=FaultPlan({}),
                            windows=(FaultWindow("N1", 4.0, 9.0),))
        on_time = OnlineEngine(app, arch, mapping, policies, fm,
                               schedule).run(plan)[0]
        assert retry in on_time.fired_entries

        woken, checked = self._record(monkeypatch)
        learn = OnlineEngine._learn
        monkeypatch.setattr(
            OnlineEngine, "_learn",
            lambda engine, slot, at, faulty: learn(engine, slot, at + 1.0,
                                                   faulty))
        late = OnlineEngine(app, arch, mapping, policies, fm,
                            schedule).run(plan)[0]
        assert retry in checked
        assert retry not in late.fired_entries
        assert not any(entry.guard.literals
                       for entry in late.fired_entries)

    def test_entry_learned_after_its_window_is_never_activated(
            self, fig5_design, monkeypatch):
        """Fig. 5: corrupting r8s0 loses P1's condition broadcast
        (nominally delivered at 34); the retransmission delivers it at
        42, after P4 (guard: P1 ok, on N2) was due at 38. The trie
        wakes P4 only when the value lands — behind the queue's
        cursor — so the entry is never guard-checked."""
        app, arch, mapping, policies, fm, schedule = fig5_design
        consumer = self._entry(schedule, "P4", 38.0)
        woken, checked = self._record(monkeypatch)
        engine = OnlineEngine(app, arch, mapping, policies, fm, schedule)
        result, events = engine.run(DesFaultPlan(
            base=FaultPlan({}), slot_faults=(SlotFault(8, 0),)))
        [delivered] = [event for event in events if event.kind
                       is DesEventKind.BROADCAST_DELIVERED
                       and event.label == "F[P1]=ok"]
        assert delivered.time == 42.0
        late = [engine._entries[position]
                for position, cursor in woken if position < cursor]
        assert consumer in late
        assert consumer not in checked
        assert consumer not in result.fired_entries
        assert "process 'P4' never completed" in " ".join(result.errors)

    def test_a_flipped_value_matches_the_other_child(self, fig5_design):
        """Trie registrations outlive a descent: when an earlier
        observation flips a slot's value, the matched nodes waiting on
        that slot descend into the other child too."""
        app, arch, mapping, policies, fm, schedule = fig5_design
        engine = OnlineEngine(app, arch, mapping, policies, fm, schedule)
        # Fig. 5: the window fails P1 on N1; P1's own knowledge slot
        # on N1 reads "faulty" from 30 on.
        engine.run(DesFaultPlan(base=FaultPlan({}),
                                windows=(FaultWindow("N1", 4.0, 9.0),)))
        [slot] = [s for s, value in enumerate(engine.known)
                  if value == (30.0, True)]
        [(ok, faulty)] = [children for s, children in engine._edges[0]
                          if s == slot]
        assert engine.matched[faulty] and not engine.matched[ok]
        engine._learn(slot, 29.0, False)
        assert engine.matched[ok]
        # That node (P1 ok) was matched with its own child slot (P2 on
        # N1) already known: its registration must stand all the same.
        [(inner, (_, inner_faulty))] = engine._edges[ok]
        assert engine.known[inner] == (85.0, False)
        assert not engine.matched[inner_faulty]
        engine._learn(inner, 84.0, True)
        assert engine.matched[inner_faulty]
