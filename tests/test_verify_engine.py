"""Tests for the sharded verification engine (``repro.verify``).

Three layers:

* the **scenario sweep** — plan order identical to
  :func:`repro.ftcpg.scenarios.iter_fault_plans` (every enumeration
  window included), every yielded result bit-identical to a one-shot
  ``simulate()`` (the CI smoke's k = 3 MX design included),
  contiguous windows partitioning the order exactly;
* the **stats** — merging chunk aggregates in any grouping equals the
  single-stream fold, JSON round-trips, and the frozen-start records
  decide violations on exact spreads (the ``round(·, 6)`` boundary
  regression);
* the **runner** — serial and parallel reports byte-identical,
  checkpoints resume, purity tripwires fire.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro.verify.runner as verify_runner
from repro.campaigns.runner import build_design
from repro.cli import main as cli_main
from repro.engine import EngineConfig
from repro.errors import ToleranceViolationError
from repro.ftcpg.scenarios import (
    count_fault_plans,
    iter_fault_plans,
    plan_enumeration,
)
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
from repro.runtime.simulator import simulate
from repro.schedule import CopyMapping, synthesize_schedule
from repro.synthesis.tabu import TabuSettings
from repro.utils.mathutils import TIME_EPS
from repro.verify import (
    ScenarioSweep,
    VerificationStats,
    VerifyConfig,
    chunk_bounds,
    load_verify_workload,
    run_verification,
    run_verify_chunk,
    verify_jobs,
)
from repro.verify.stats import FrozenStartStat


@pytest.fixture
def pipeline_setup():
    app = Application(
        [Process("A", {"N1": 10.0}, mu=1.0),
         Process("B", {"N1": 8.0, "N2": 8.0}, mu=1.0),
         Process("C", {"N2": 6.0}, mu=1.0)],
        [Message("m1", "A", "B", size_bytes=4),
         Message("m2", "B", "C", size_bytes=4)],
        deadline=500)
    arch = Architecture([Node("N1"), Node("N2")],
                        BusSpec(("N1", "N2"), slot_length=2.0))
    return app, arch


def _design(app, arch, policies, mapping, k):
    fm = FaultModel(k=k)
    schedule = synthesize_schedule(app, arch, mapping, policies, fm)
    return fm, schedule


def _chunk_design(config):
    """The ``(app, arch, mapping, policies, fault_model, schedule)``
    design every ``run_verify_chunk`` of ``config`` derives."""
    app, arch, transparency = load_verify_workload(config.workload)
    return build_design(app, arch, verify_jobs(config)[0].params_dict(),
                        transparency=transparency).executor_args


QUICK_SETTINGS = TabuSettings(iterations=4, neighborhood=4,
                              bus_contention=False)
QUICK = dict(workload={"processes": 5, "nodes": 2, "seed": 1}, k=2,
             chunks=3, settings=QUICK_SETTINGS)

#: A generated-workload verification with DES scenarios; its reports
#: are pinned by SHA-256 below.
DES_COMMAND = [
    "verify", "--processes", "6", "--nodes", "2", "--seed", "1",
    "--k", "2", "--des-scenarios", "10", "--jitter", "0.5",
    "--workers", "1", "--no-resume",
]

#: The CI verify-DES smoke: the only pinned run whose design is
#: derived with a transparency (the bbw preset's), and chunk 0 runs
#: its DES scenarios on those transparency-aware tables.
BBW_DES_COMMAND = [
    "verify", "--preset", "bbw", "--k", "1", "--des-scenarios", "10",
    "--workers", "1", "--no-resume",
]


class TestScenarioSweep:
    @pytest.mark.parametrize("policy,k", [
        (ProcessPolicy.re_execution(2), 2),
        (ProcessPolicy.checkpointing(2, 2), 2),
        (ProcessPolicy.replication(1), 1),
        # Deeper budgets and mixed copies: guards whose literals
        # disagree with the fault-free state on several copies at once
        # (multi-copy fault signatures).
        (ProcessPolicy.checkpointing(3, 2), 3),
        (ProcessPolicy.replication_and_checkpointing(2, 1), 2),
    ], ids=["reexec", "checkpointing", "replication",
            "checkpointing-k3", "replication-checkpointing"])
    def test_bit_identical_to_simulate(self, pipeline_setup, policy,
                                       k):
        app, arch = pipeline_setup
        policies = PolicyAssignment.uniform(app, policy)
        mapping = CopyMapping(
            {(name, copy): sorted(app.process(name).wcet)[
                copy % len(app.process(name).wcet)]
             for name, p in policies.items()
             for copy in range(len(p.copies))})
        fm, schedule = _design(app, arch, policies, mapping, k)
        sweep = ScenarioSweep(app, arch, mapping, policies, fm,
                              schedule)
        plans = list(iter_fault_plans(app, policies, k))
        results = list(sweep.results())
        assert sweep.total == len(plans) == count_fault_plans(
            app, policies, k)
        assert len(results) == len(plans)
        for plan, got in zip(plans, results):
            want = simulate(app, arch, mapping, policies, fm,
                            schedule, plan)
            assert got.plan.faults == plan.faults
            assert got.errors == want.errors
            assert got.makespan == want.makespan
            assert got.completed == want.completed
            assert got.fired_entries == want.fired_entries

    def test_window_partition(self, pipeline_setup):
        app, arch = pipeline_setup
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(2))
        mapping = CopyMapping.from_process_map(
            {"A": "N1", "B": "N1", "C": "N2"}, policies)
        fm, schedule = _design(app, arch, policies, mapping, 2)
        sweep = ScenarioSweep(app, arch, mapping, policies, fm,
                              schedule)
        whole = [(r.plan.faults, r.makespan) for r in sweep.results()]
        for chunks in (1, 2, 4, 7):
            windows = [chunk_bounds(sweep.total, c, chunks)
                       for c in range(chunks)]
            assert windows[0][0] == 0
            assert windows[-1][1] == sweep.total
            for (__, hi), (lo, ___) in zip(windows, windows[1:]):
                assert hi == lo  # contiguous, gap-free
            parts = [(r.plan.faults, r.makespan)
                     for lo, hi in windows
                     for r in sweep.results(lo, hi)]
            assert parts == whole

    def test_chunk_bounds_validated(self):
        with pytest.raises(ValueError, match="chunks"):
            chunk_bounds(10, 0, 0)
        with pytest.raises(ValueError, match="chunk"):
            chunk_bounds(10, 2, 2)

    def test_enumeration_windows_match_full_order(self,
                                                  pipeline_setup):
        app, arch = pipeline_setup
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.checkpointing(2, 2))
        enum = plan_enumeration(app, policies, 2)
        full = list(iter_fault_plans(app, policies, 2))
        assert list(enum.plans()) == full
        for start in range(len(full) + 1):
            for stop in range(start, len(full) + 2):
                assert list(enum.plans(start, stop)) \
                    == full[start:stop], (start, stop)
        assert list(enum.plans(-3, 2)) == full[:2]
        assert list(iter_fault_plans(app, policies, 2,
                                     include_fault_free=False)) \
            == full[1:]

    def test_subtree_leaves_totals(self, pipeline_setup):
        app, arch = pipeline_setup
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.checkpointing(2, 2))
        enum = plan_enumeration(app, policies, 2)
        assert enum.total == count_fault_plans(app, policies, 2)
        table = enum.subtree_leaves()
        # Budget monotone: more remaining faults, never fewer leaves.
        for row in table:
            assert all(a <= b for a, b in zip(row, row[1:]))

    def test_forced_full_oracle_matches(self, pipeline_setup):
        """Kernel output through the façade equals ``simulate()`` per
        plan, window by window."""
        app, arch = pipeline_setup
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(1))
        mapping = CopyMapping.from_process_map(
            {"A": "N1", "B": "N1", "C": "N2"}, policies)
        fm, schedule = _design(app, arch, policies, mapping, 1)
        sweep = ScenarioSweep(app, arch, mapping, policies, fm,
                              schedule)
        plans = list(iter_fault_plans(app, policies, fm.k))
        for lo, hi in [(0, None), (1, 3), (2, sweep.total)]:
            want = [simulate(app, arch, mapping, policies, fm,
                             schedule, plan) for plan in plans[lo:hi]]
            assert list(sweep.results(lo, hi)) == want, (lo, hi)
        assert len(plans) == sweep.total

    def test_deep_k_design_matches_oracle(self):
        """The design of ``repro verify --processes 6 --nodes 2 --seed
        1 --k 3 --strategy MX`` at the CLI's default tabu budget:
        every swept result equals ``simulate()``."""
        config = VerifyConfig(
            workload={"processes": 6, "nodes": 2, "seed": 1}, k=3,
            strategy="MX", seed=1,
            settings=TabuSettings(iterations=24, neighborhood=16,
                                  bus_contention=False))
        app, arch, mapping, policies, fm, schedule = \
            _chunk_design(config)
        sweep = ScenarioSweep(app, arch, mapping, policies, fm,
                              schedule)
        assert sweep.total == 84
        plans = iter_fault_plans(app, policies, fm.k)
        for plan, result in zip(plans, sweep.results(), strict=True):
            assert result == simulate(app, arch, mapping, policies, fm,
                                      schedule, plan), plan.describe()


class TestVerificationStats:
    def _results(self, pipeline_setup):
        app, arch = pipeline_setup
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(2))
        mapping = CopyMapping.from_process_map(
            {"A": "N1", "B": "N1", "C": "N2"}, policies)
        fm, schedule = _design(app, arch, policies, mapping, 2)
        transparency = Transparency(frozen_processes=("C",))
        sweep = ScenarioSweep(app, arch, mapping, policies, fm,
                              schedule)
        return list(sweep.results()), transparency

    def test_merge_equals_single_stream(self, pipeline_setup):
        results, transparency = self._results(pipeline_setup)
        whole = VerificationStats()
        for result in results:
            whole.observe(result, transparency)
        merged = VerificationStats()
        for chunk in range(3):
            part = VerificationStats()
            for result in results[chunk::3]:
                part.observe(result, transparency)
            merged.merge(VerificationStats.from_jsonable(
                json.loads(json.dumps(part.to_jsonable()))))
        assert merged.to_jsonable() == whole.to_jsonable()
        assert merged.frozen_violations() == whole.frozen_violations()

    def test_jsonable_roundtrip(self, pipeline_setup):
        results, transparency = self._results(pipeline_setup)
        stats = VerificationStats()
        for result in results:
            stats.observe(result, transparency)
        payload = stats.to_jsonable()
        assert VerificationStats.from_jsonable(
            payload).to_jsonable() == payload

    def test_fault_histogram_partitions_scenarios(self,
                                                  pipeline_setup):
        results, transparency = self._results(pipeline_setup)
        stats = VerificationStats()
        for result in results:
            stats.observe(result, transparency)
        assert sum(b.scenarios
                   for b in stats.fault_hist.values()) \
            == stats.scenarios
        # Makespans grow (weakly) with the fault count on a chain.
        worsts = [bin_.worst_makespan for __, bin_ in
                  sorted(stats.fault_hist.items())]
        assert worsts == sorted(worsts)


class TestFrozenStartEps:
    """The ``round(·, 6)`` bucketing regression (satellite fix).

    Two starts 1.5e-6 apart are a real transparency violation
    (spread > TIME_EPS) but land on *adjacent* 1e-6 grid points, so
    the legacy rounded-bucket spread collapsed to exactly 1e-6 and
    the strict ``> TIME_EPS`` comparison missed it. The records now
    decide on exact, unrounded spreads.
    """

    def test_boundary_violation_detected(self):
        low, high = 0.9999996, 0.9999996 + 1.5e-6
        assert round(high, 6) - round(low, 6) <= TIME_EPS  # legacy miss
        record = FrozenStartStat.of(low)
        record.observe(high)
        assert record.spread == pytest.approx(1.5e-6)
        assert record.violated

    def test_exact_tolerance_is_not_a_violation(self):
        record = FrozenStartStat.of(1.0)
        record.observe(1.0 + TIME_EPS)
        assert not record.violated

    def test_merge_keeps_exact_extrema(self):
        a = FrozenStartStat.of(1.0)
        b = FrozenStartStat.of(1.0 + 2.5e-6)
        a.merge(b)
        assert a.violated
        assert a.max_start == 1.0 + 2.5e-6
        # Display clusters eps-close starts, keeps distinct ones.
        shown = a.shown_starts()
        assert shown == [1.0, 1.0 + 2.5e-6]

    def test_stats_report_boundary_violation(self, pipeline_setup=None):
        stats = VerificationStats()
        stats.frozen_processes[("P", 0)] = FrozenStartStat.of(2.0)
        stats.frozen_processes[("P", 0)].observe(2.0 + 1.5e-6)
        assert not stats.ok
        (message,) = stats.frozen_violations()
        assert "frozen process 'P'" in message


class TestVerifyRunner:
    def test_jobs_cover_all_chunks(self):
        config = VerifyConfig(**QUICK)
        jobs = verify_jobs(config)
        assert len(jobs) == config.chunks
        assert [job.params_dict()["chunk"] for job in jobs] \
            == [0, 1, 2]

    def test_serial_parallel_byte_identical(self):
        config = VerifyConfig(**QUICK)
        serial = run_verification(
            config, engine_config=EngineConfig(workers=1))
        parallel = run_verification(
            config, engine_config=EngineConfig(workers=2))
        assert serial.to_json() == parallel.to_json()
        assert serial.ok
        assert serial.stats.scenarios == serial.scenarios_total
        serial.raise_on_failure()

    def test_windows_partition_scenarios(self):
        config = VerifyConfig(**QUICK)
        cells = [run_verify_chunk(job.params_dict())
                 for job in verify_jobs(config)]
        total = cells[0]["scenarios_total"]
        assert [c["start"] for c in cells] \
            == [chunk_bounds(total, i, config.chunks)[0]
                for i in range(config.chunks)]
        assert sum(c["stats"]["scenarios"] for c in cells) == total

    def test_resume_from_checkpoint(self, tmp_path):
        config = VerifyConfig(**QUICK)
        ckpt = tmp_path / "verify.ckpt.jsonl"
        first = run_verification(
            config, engine_config=EngineConfig(workers=1,
                                               checkpoint_path=ckpt))
        assert first.executed_chunks == config.chunks
        second = run_verification(
            config, engine_config=EngineConfig(workers=1,
                                               checkpoint_path=ckpt))
        assert second.resumed_chunks == config.chunks
        assert second.executed_chunks == 0
        assert second.to_json() == first.to_json()

    def test_scenario_limit_enforced(self):
        config = VerifyConfig(**{**QUICK, "max_scenarios": 2})
        job = verify_jobs(config)[0]
        with pytest.raises(ToleranceViolationError,
                           match="exceed the verification limit"):
            run_verify_chunk(job.params_dict())

    def test_preset_workloads_carry_transparency(self):
        app, arch, transparency = load_verify_workload(
            {"preset": "fig5"})
        assert transparency is not None
        assert transparency.is_frozen_process("P3")
        app, arch, transparency = load_verify_workload(
            {"preset": "bbw"})
        assert transparency is not None
        __, ___, none = load_verify_workload(
            {"processes": 4, "nodes": 2, "seed": 1})
        assert none is None

    def test_fig5_certified_with_contract(self):
        config = VerifyConfig(workload={"preset": "fig5"}, k=2,
                              chunks=2, settings=QUICK_SETTINGS)
        report = run_verification(
            config, engine_config=EngineConfig(workers=1))
        assert report.ok
        assert report.stats.frozen_processes  # contract was audited
        payload = report.to_jsonable()
        assert payload["certified"] is True
        assert payload["stats"]["frozen_violations"] == []

    def test_config_validation(self):
        with pytest.raises(ValueError, match="chunks"):
            VerifyConfig(chunks=0)
        with pytest.raises(ValueError, match="k must"):
            VerifyConfig(k=-1)
        with pytest.raises(ValueError, match="max_scenarios"):
            VerifyConfig(max_scenarios=0)

    @pytest.mark.parametrize("jitter", [float("inf"), float("nan")])
    def test_non_finite_jitter_rejected(self, jitter):
        """An ``inf`` release delay once reached the DES event queue
        and hung the run; NaN slipped past ``jitter < 0``."""
        with pytest.raises(ValueError, match="finite"):
            VerifyConfig(des_scenarios=3, jitter=jitter)

    def test_des_scenarios_derive_each_design_once(self, derivations):
        config = VerifyConfig(**QUICK, des_scenarios=5)
        report = run_verification(
            config, engine_config=EngineConfig(workers=1))
        assert report.des["scenarios"] == 5
        assert derivations == {"synthesize_campaign_design": 3,
                               "synthesize_schedule": 3}

    def test_des_pass_runs_on_certified_tables(self, monkeypatch):
        """The DES pass simulates the transparency-aware tables the
        certificate covers, not a transparency-free rebuild."""
        schedules = []

        class Spy(verify_runner.DesSimulator):
            def __init__(self, app, arch, mapping, policies,
                         fault_model, schedule):
                schedules.append(schedule)
                super().__init__(app, arch, mapping, policies,
                                 fault_model, schedule)

        monkeypatch.setattr(verify_runner, "DesSimulator", Spy)
        config = VerifyConfig(workload={"preset": "bbw"}, k=1,
                              chunks=2, settings=QUICK_SETTINGS,
                              des_scenarios=3)
        report = run_verification(
            config, engine_config=EngineConfig(workers=1))
        assert len(schedules) == 1
        assert schedules[0].worst_case_length \
            == report.exact_worst_case

    def test_des_section_worker_and_layout_invariant(self):
        config = VerifyConfig(**QUICK, des_scenarios=6, jitter=0.5)
        serial = run_verification(
            config, engine_config=EngineConfig(workers=1))
        parallel = run_verification(
            config, engine_config=EngineConfig(workers=2))
        assert serial.to_json() == parallel.to_json()
        assert serial.des["scenarios"] == 6
        # The DES section is chunk 0's, whatever the chunk layout.
        single = run_verification(
            VerifyConfig(**{**QUICK, "chunks": 1}, des_scenarios=6,
                         jitter=0.5),
            engine_config=EngineConfig(workers=1))
        assert single.des == serial.des

    def test_des_run_reruns_plain_journal(self, tmp_path):
        engine = EngineConfig(workers=1,
                              checkpoint_path=tmp_path / "v.jsonl")
        plain_config = VerifyConfig(**QUICK)
        plain = run_verification(plain_config, engine_config=engine)
        assert plain.executed_chunks == plain_config.chunks
        # Plain chunk 0 carries no DES section: the params differ, so
        # no plain chunk is merged into a run with DES scenarios.
        config = VerifyConfig(**QUICK, des_scenarios=4)
        des = run_verification(config, engine_config=engine)
        assert des.executed_chunks == config.chunks
        assert des.des["scenarios"] == 4
        resumed = run_verification(config, engine_config=engine)
        assert resumed.resumed_chunks == config.chunks
        assert resumed.executed_chunks == 0
        assert resumed.to_json() == des.to_json()
        again = run_verification(plain_config, engine_config=engine)
        assert again.resumed_chunks == plain_config.chunks
        assert again.to_json() == plain.to_json()

    @pytest.mark.parametrize("command, chunks, digest", [
        (DES_COMMAND, "1", "37a91d3023e1334f70e54fa90313b206"
                           "fea31ca2ff44a2c787c28ce1bd025e95"),
        (DES_COMMAND, "3", "080fa9d4d84e1fb9262735e4bf4fe6f4"
                           "641219f91ba3c55280010876c3bf1f2a"),
        (BBW_DES_COMMAND, "3", "c8b7744242ee35afe026fc52ad797227"
                               "37f7fc8476b633cf690a371ff3bedf9c"),
    ], ids=["chunks1", "chunks3", "bbw"])
    def test_des_report_bytes_pinned(self, tmp_path, capsys, command,
                                     chunks, digest):
        out = tmp_path / "verify.json"
        assert cli_main(command + ["--chunks", chunks,
                                   "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_report_json_export(self, tmp_path):
        config = VerifyConfig(**QUICK)
        report = run_verification(
            config, engine_config=EngineConfig(workers=1))
        path = tmp_path / "verify.json"
        report.write_json(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["scenarios_total"] == report.scenarios_total
        assert payload["verify"]["workload"] == config.label
        assert payload["stats"]["fault_hist"]
        assert report.summary_lines()
