"""Golden scenario-trace snapshots (``tests/golden/``).

For the paper's Fig. 5 example and the brake-by-wire case study, the
full fired-entry trace of two pinned scenarios — fault-free and one
deterministic max-fault plan — is diffed against a committed text
artifact. Simulator refactors (including the batched scenario
kernel behind the scenario sweep) must reproduce these traces byte
for byte; a legitimate behavior change regenerates them with

    REPRO_UPDATE_GOLDEN=1 pytest tests/test_golden_traces.py

and the diff lands in review like any other code change.

The same pinned scenarios are also cross-checked between the one-shot
``simulate()`` path and the :class:`~repro.verify.core.ScenarioSweep`
façade, so the golden files guard both implementations at once.

PR 8 adds golden **event traces** for the DES-only fault axes
(intermittent windows, corrupted TDMA slots, release jitter): those
scenarios have no table-replay oracle, so the full ordered event log
of one pinned plan per axis and per design is the artifact that pins
their behavior. The pinned plans are derived deterministically from
each design's own schedule (first attempt, first message frame), so
they stay meaningful if the presets evolve.

``gen8p2n_k3_des_campaign.txt`` pins a whole campaign-length sequence
instead: every plan of two generated designs' extended campaign
samples, run through one simulator per design, one digest line per
plan. It is the guard against state carried from one plan into the
next by the simulator's per-design compile.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import pytest

from repro.campaigns import CampaignConfig
from repro.campaigns.runner import (
    build_design,
    campaign_jobs,
    load_campaign_workload,
)
from repro.campaigns.sampling import sample_campaign_plans
from repro.des import DesSimulator, render_trace
from repro.ftcpg.scenarios import (
    DesFaultPlan,
    FaultPlan,
    FaultWindow,
    SlotFault,
    iter_fault_plans,
)
from repro.model import FaultModel
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.runtime.simulator import SimulationResult, simulate
from repro.schedule.conditional import synthesize_schedule
from repro.schedule.table import EntryKind
from repro.synthesis import TabuSettings, initial_mapping
from repro.utils.rng import derive_seed
from repro.verify.core import ScenarioSweep
from repro.workloads.presets import brake_by_wire, fig5_example

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN", "") not in ("", "0")


def _render_trace(result: SimulationResult) -> str:
    """Stable text form of one scenario's fired-entry trace."""
    lines = [
        f"# plan: {result.plan.describe()}",
        f"# makespan: {result.makespan:.6f}",
        f"# errors: {len(result.errors)}",
    ]
    for entry in result.fired_entries:
        if entry.attempt is not None:
            what = entry.attempt.label()
        else:
            what = f"{entry.message}@copy{entry.producer_copy}"
        lines.append(
            f"{entry.kind.value:9s} {entry.location:4s} "
            f"{entry.start:12.6f} {entry.duration:10.6f} "
            f"{what:18s} [{entry.guard}]")
    return "\n".join(lines) + "\n"


def _max_fault_plan(app, policies, k):
    """The first enumerated plan that spends the whole budget."""
    for plan in iter_fault_plans(app, policies, k):
        if plan.total_faults == k:
            return plan
    raise AssertionError("no max-fault plan found")


def _fig5_design():
    app, arch, fault_model, transparency, mapping = fig5_example()
    policies = PolicyAssignment.uniform(
        app, ProcessPolicy.re_execution(fault_model.k))
    schedule = synthesize_schedule(app, arch, mapping, policies,
                                   fault_model, transparency)
    return app, arch, mapping, policies, fault_model, schedule


def _bbw_design():
    app, arch, transparency = brake_by_wire()
    fault_model = FaultModel(k=1)
    policies = PolicyAssignment.uniform(
        app, ProcessPolicy.re_execution(fault_model.k))
    mapping = initial_mapping(app, arch, policies)
    schedule = synthesize_schedule(app, arch, mapping, policies,
                                   fault_model, transparency)
    return app, arch, mapping, policies, fault_model, schedule


DESIGNS = {"fig5": _fig5_design, "brake_by_wire": _bbw_design}


def _check_golden(name: str, text: str) -> None:
    path = GOLDEN_DIR / f"{name}.txt"
    if UPDATE or not path.exists():
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
    golden = path.read_text(encoding="utf-8")
    assert text == golden, (
        f"scenario trace diverged from {path.name}; if the change is "
        "intentional, regenerate with REPRO_UPDATE_GOLDEN=1")


class TestGoldenTraces:
    @pytest.fixture(scope="class", params=sorted(DESIGNS),
                    ids=sorted(DESIGNS))
    def design(self, request):
        return request.param, DESIGNS[request.param]()

    def test_fault_free_trace_pinned(self, design):
        name, (app, arch, mapping, policies, fm, schedule) = design
        plan = next(iter_fault_plans(app, policies, fm.k))
        assert plan.is_fault_free()
        result = simulate(app, arch, mapping, policies, fm, schedule,
                          plan)
        assert result.ok, result.errors[:1]
        _check_golden(f"{name}_fault_free", _render_trace(result))

    def test_max_fault_trace_pinned(self, design):
        name, (app, arch, mapping, policies, fm, schedule) = design
        plan = _max_fault_plan(app, policies, fm.k)
        result = simulate(app, arch, mapping, policies, fm, schedule,
                          plan)
        assert result.ok, result.errors[:1]
        _check_golden(f"{name}_max_fault", _render_trace(result))

    def test_sweep_reproduces_pinned_traces(self, design):
        """The scenario sweep renders the same golden traces."""
        name, (app, arch, mapping, policies, fm, schedule) = design
        sweep = ScenarioSweep(app, arch, mapping, policies, fm,
                              schedule)
        plans = list(iter_fault_plans(app, policies, fm.k))
        wanted = {0: f"{name}_fault_free"}
        wanted[plans.index(_max_fault_plan(app, policies, fm.k))] = \
            f"{name}_max_fault"
        for index, result in enumerate(sweep.results()):
            golden_name = wanted.get(index)
            if golden_name is None:
                continue
            _check_golden(golden_name, _render_trace(result))


def _des_axis_plans(app, schedule):
    """One pinned DES-only plan per fault axis, derived from the
    design's own schedule so the scenario always bites: the window
    covers the first attempt's first half, the corrupted slot is the
    first message frame's occurrence, the jitter delays the earliest
    process."""
    entries = sorted(schedule.entries,
                     key=lambda e: (e.start, e.location))
    first_attempt = next(e for e in entries
                         if e.kind is EntryKind.ATTEMPT)
    half = (first_attempt.end - first_attempt.start) / 2
    window = FaultWindow(node=first_attempt.location,
                         t_on=first_attempt.start,
                         t_off=first_attempt.start + half)
    first_message = next(e for e in entries
                         if e.kind is EntryKind.MESSAGE)
    frame = first_message.frames[0]
    slot = SlotFault(round_index=frame.round_index,
                     slot_index=frame.slot_index)
    delayed = min(app.process_names)
    return {
        "intermittent": DesFaultPlan(base=FaultPlan({}),
                                     windows=(window,)),
        "slot": DesFaultPlan(base=FaultPlan({}),
                             slot_faults=(slot,)),
        "jitter": DesFaultPlan(base=FaultPlan({}),
                               jitter={delayed: 3.0}),
    }


class TestDesGoldenTraces:
    """Full ordered DES event logs for the axes without an oracle."""

    @pytest.fixture(scope="class", params=sorted(DESIGNS),
                    ids=sorted(DESIGNS))
    def design(self, request):
        return request.param, DESIGNS[request.param]()

    @pytest.mark.parametrize("axis",
                             ("intermittent", "slot", "jitter"))
    def test_des_axis_trace_pinned(self, design, axis):
        name, (app, arch, mapping, policies, fm, schedule) = design
        plan = _des_axis_plans(app, schedule)[axis]
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        run = des.run(plan)
        text = (f"# plan: {run.result.plan.describe()}\n"
                f"# makespan: {run.result.makespan:.6f}\n"
                f"# errors: {len(run.result.errors)}\n"
                + render_trace(run.events))
        _check_golden(f"{name}_des_{axis}", text)


#: Workload seeds of the campaign-shaped designs pinned below.
CAMPAIGN_SEEDS = (1, 2)


def _campaign_des_lines(seed: int) -> list[str]:
    """Run one generated design's extended campaign sample through one
    simulator and digest every plan's outcome and event log."""
    config = CampaignConfig(
        workload={"processes": 8, "nodes": 2, "seed": seed},
        k=3, strategy="MX", sampler="stratified", samples=80,
        chunks=1, seed=seed,
        settings=TabuSettings(iterations=8, neighborhood=8,
                              bus_contention=False),
        intermittent=1, slot_faults=1, jitter=0.5)
    design = build_design(*load_campaign_workload(config.workload),
                          campaign_jobs(config)[0].params_dict())
    plans = sample_campaign_plans(
        design.app, design.result.policies, config.k,
        sampler=config.sampler, samples=config.samples,
        seed=derive_seed(config.seed, "campaign-plans"))
    plans = design.extend_plans(
        plans, intermittent=config.intermittent,
        slot_faults=config.slot_faults, jitter=config.jitter,
        seed=derive_seed(config.seed, "campaign-des"))
    des = DesSimulator(*design.executor_args)
    lines = [f"# design seed {seed}: {len(plans)} plans"]
    for plan in plans:
        run = des.run(plan)
        errors = run.result.errors
        digest = hashlib.sha256(
            render_trace(run.events).encode("utf-8")).hexdigest()
        lines.append(
            f"{plan.describe()} | makespan {run.result.makespan:.6f} | "
            f"errors {len(errors)} | first {errors[0] if errors else '-'}"
            f" | events {len(run.events)} | {digest}")
    return lines


class TestDesCampaignGolden:
    """One simulator, many plans: the forward path must not carry state
    from one plan into the next.

    Two generated designs shaped like the ``campaign-des`` benchmark
    workload (8 processes, 2 nodes, k=3, MX) run their stratified
    campaign sample — the fault-free anchor plus 80 faulty plans
    extended with one intermittent window, one corrupted slot and
    release jitter — in sequence through one :class:`DesSimulator`;
    one line per plan pins its outcome and the SHA-256 of its
    rendered event log.
    """

    def test_des_campaign_sequence_pinned(self):
        lines: list[str] = []
        for seed in CAMPAIGN_SEEDS:
            lines.extend(_campaign_des_lines(seed))
        _check_golden("gen8p2n_k3_des_campaign", "\n".join(lines) + "\n")
