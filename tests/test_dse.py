"""Tests for the Pareto design-space explorer (repro.dse)."""

from __future__ import annotations

import hashlib
import json

import pytest

import repro.dse.explorer as explorer
import repro.eval.core as eval_core
from repro.cli import main as cli_main
from repro.dse import (
    Candidate,
    DesignPoint,
    DseConfig,
    ParetoArchive,
    SpaceConfig,
    TransparencySpec,
    apply_checkpoint_counts,
    dominates,
    dse_jobs,
    enumerate_candidates,
    merge_dse_cells,
    run_dse,
    run_dse_chunk,
    space_size,
    transparency_specs,
)
from repro.engine import EngineConfig
from repro.model import Transparency
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.schedule.metrics import (
    MIN_STATE_BYTES,
    REPLICA_IMAGE_BYTES,
    ft_memory_overhead,
    process_state_bytes,
    transparency_degree,
)
from repro.synthesis import TabuSettings, initial_mapping
from repro.workloads import GeneratorConfig, fig3_example, generate_workload

#: Small, fast exploration shared by the integration tests.
SMALL_CONFIG = DseConfig(
    workload={"processes": 6, "nodes": 2, "seed": 3},
    space=SpaceConfig(strategies=("MXR", "SFX"), k_values=(1,),
                      checkpoint_counts=(0, 1),
                      transparency_samples=1),
    chunks=3,
    settings=TabuSettings(iterations=4, neighborhood=6,
                          bus_contention=False),
)


#: SMALL_CONFIG with frontier certification on.
CERTIFYING_CONFIG = DseConfig(
    workload=SMALL_CONFIG.workload,
    space=SMALL_CONFIG.space,
    chunks=SMALL_CONFIG.chunks,
    settings=SMALL_CONFIG.settings,
    verify_frontier=True,
)

#: The CI smoke command; its reports are pinned by SHA-256 below.
CERTIFY_COMMAND = [
    "dse", "--processes", "4", "--nodes", "2", "--seed", "2",
    "--k", "1", "2", "--checkpoint-counts", "0", "1", "2",
    "--verify-frontier", "--workers", "1", "--no-resume",
]


def _point(index, objectives, group="k=1", **extras):
    return DesignPoint(index=index, candidate={"id": f"p{index}"},
                       objectives=tuple(objectives), group=group,
                       extras=extras)


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((1.0, 1.0), (2.0, 1.0))
        assert not dominates((1.0, 1.0), (1.0, 1.0))
        assert not dominates((1.0, 2.0), (2.0, 1.0))


class TestParetoArchive:
    def test_dominated_points_rejected_and_evicted(self):
        archive = ParetoArchive((1.0, 1.0))
        assert archive.insert(_point(0, (5.0, 5.0)))
        assert not archive.insert(_point(1, (6.0, 5.0)))
        assert archive.insert(_point(2, (1.0, 1.0)))  # evicts point 0
        assert [p.index for p in archive.points()] == [2]

    def test_exact_duplicates_keep_lowest_index(self):
        archive = ParetoArchive((1.0, 1.0))
        archive.insert(_point(5, (3.0, 3.0)))
        assert not archive.insert(_point(7, (3.0, 3.0)))
        assert archive.insert(_point(2, (3.0, 3.0)))
        assert [p.index for p in archive.points()] == [2]

    def test_groups_do_not_dominate_each_other(self):
        archive = ParetoArchive((1.0, 1.0))
        archive.insert(_point(0, (1.0, 1.0), group="k=1"))
        assert archive.insert(_point(1, (9.0, 9.0), group="k=2"))
        assert archive.groups() == ("k=1", "k=2")

    def test_insertion_order_independence(self):
        points = [
            _point(0, (1.0, 9.0)),
            _point(1, (9.0, 1.0)),
            _point(2, (5.0, 5.0)),
            _point(3, (5.0, 5.5)),   # dominated by 2
            _point(4, (4.9, 5.1)),
            _point(5, (1.0, 9.0)),   # duplicate of 0, higher index
        ]
        import itertools
        reference = None
        for order in itertools.permutations(points):
            archive = ParetoArchive((1.0, 1.0), order)
            snapshot = archive.to_jsonable()
            if reference is None:
                reference = snapshot
            assert snapshot == reference

    def test_frontier_keeps_one_point_per_epsilon_box(self):
        archive = ParetoArchive((10.0, 10.0))
        # Mutually non-dominated, but all inside the box [0,10)x[0,10).
        archive.insert(_point(0, (1.0, 9.0)))
        archive.insert(_point(1, (9.0, 1.0)))
        archive.insert(_point(2, (2.0, 2.0)))
        assert len(archive.points()) == 3
        frontier = archive.frontier()
        assert [p.index for p in frontier] == [2]  # nearest the corner

    def test_frontier_is_set_function_of_points(self):
        points = [_point(i, (float(i % 4), float((7 - i) % 5)))
                  for i in range(8)]
        a = ParetoArchive.merged((1.0, 1.0), [points[:3], points[3:]])
        b = ParetoArchive.merged((1.0, 1.0), [points[5:], points[:5]])
        assert a.to_jsonable() == b.to_jsonable()
        assert ([p.to_jsonable() for p in a.frontier()]
                == [p.to_jsonable() for p in b.frontier()])

    def test_rejects_bad_epsilons_and_arity(self):
        with pytest.raises(ValueError):
            ParetoArchive(())
        with pytest.raises(ValueError):
            ParetoArchive((1.0, 0.0))
        archive = ParetoArchive((1.0, 1.0))
        with pytest.raises(ValueError):
            archive.insert(_point(0, (1.0, 2.0, 3.0)))

    def test_json_round_trip(self):
        archive = ParetoArchive((1.0, 1.0))
        archive.insert(_point(0, (1.0, 9.0), scenario=3))
        archive.insert(_point(1, (9.0, 1.0)))
        clone = ParetoArchive.from_jsonable(
            json.loads(json.dumps(archive.to_jsonable())))
        assert clone.to_jsonable() == archive.to_jsonable()


class TestSpace:
    def test_enumeration_is_deterministic_and_numbered(self):
        app, arch = generate_workload(GeneratorConfig(
            processes=6, nodes=2, seed=3))
        config = SpaceConfig(transparency_samples=2)
        first = enumerate_candidates(app, arch, config)
        second = enumerate_candidates(app, arch, config)
        assert first == second
        assert [c.index for c in first] == list(range(len(first)))
        assert len(first) == space_size(app, arch, config)

    def test_transparency_specs_unique_and_cover_levels(self):
        app, arch = generate_workload(GeneratorConfig(
            processes=6, nodes=2, seed=3))
        specs = transparency_specs(app, arch,
                                   SpaceConfig(transparency_samples=3))
        vectors = {(s.frozen_processes, s.frozen_messages)
                   for s in specs}
        assert len(vectors) == len(specs)
        labels = {s.label for s in specs}
        assert {"none", "messages", "full"} <= labels

    def test_specs_build_valid_transparency(self):
        app, arch = generate_workload(GeneratorConfig(
            processes=6, nodes=2, seed=3))
        for spec in transparency_specs(app, arch, SpaceConfig()):
            spec.build().validate(app)

    def test_space_config_validation(self):
        with pytest.raises(ValueError):
            SpaceConfig(strategies=("MC",))  # not a DSE strategy
        with pytest.raises(ValueError):
            SpaceConfig(k_values=(0,))
        with pytest.raises(ValueError):
            SpaceConfig(checkpoint_counts=(-1,))
        with pytest.raises(ValueError):
            SpaceConfig(transparency_samples=-1)

    def test_axis_values_deduplicated_in_order(self):
        config = SpaceConfig(strategies=("MXR", "SFX", "MXR"),
                             k_values=(2, 1, 2),
                             checkpoint_counts=(1, 0, 1, 0))
        assert config.strategies == ("MXR", "SFX")
        assert config.k_values == (2, 1)
        assert config.checkpoint_counts == (1, 0)

    def test_space_config_json_round_trip(self):
        config = SpaceConfig(strategies=("MXR", "MR"), k_values=(1, 2),
                             checkpoint_counts=(0, 2),
                             transparency_samples=1, seed=9)
        clone = SpaceConfig.from_jsonable(
            json.loads(json.dumps(config.to_jsonable())))
        assert clone == config

    def test_candidate_id_shape(self):
        spec = TransparencySpec("none", (), ())
        candidate = Candidate(index=0, strategy="MXR", k=2,
                              checkpoints=1, transparency=spec)
        assert candidate.candidate_id == "MXR/k=2/c=1/t=none"


class TestDesignMetrics:
    def test_transparency_degree_endpoints(self):
        app, __ = fig3_example()
        assert transparency_degree(app, None) == 0.0
        assert transparency_degree(app, Transparency.none()) == 0.0
        assert transparency_degree(app, Transparency.full(app)) == 1.0
        partial = transparency_degree(
            app, Transparency(frozen_processes=("P1",)))
        assert partial == pytest.approx(1 / 9)

    def test_ft_memory_overhead_pure_reexecution_is_free(self):
        app, __ = fig3_example()
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(2))
        overhead = ft_memory_overhead(app, policies)
        assert overhead.total_bytes == 0

    def test_ft_memory_overhead_counts_both_mechanisms(self):
        app, __ = fig3_example()
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(2))
        policies = policies.replaced("P1",
                                     ProcessPolicy.replication(2))
        policies = policies.replaced(
            "P2", ProcessPolicy.checkpointing(2, checkpoints=3))
        overhead = ft_memory_overhead(app, policies)
        p1_state = process_state_bytes(app, "P1")
        p2_state = process_state_bytes(app, "P2")
        assert overhead.replication_bytes == 2 * (REPLICA_IMAGE_BYTES
                                                  + p1_state)
        assert overhead.checkpoint_bytes == 3 * p2_state
        assert overhead.total_bytes == (overhead.checkpoint_bytes
                                        + overhead.replication_bytes)

    def test_process_state_bytes_floor(self):
        app, __ = fig3_example()
        # fig3 messages are 8 bytes each; P1 sends two, receives none.
        assert process_state_bytes(app, "P1") == max(MIN_STATE_BYTES,
                                                     16)


class TestCheckpointTransform:
    def _solution(self, k=2):
        app, arch = fig3_example()
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(k))
        policies = policies.replaced("P1",
                                     ProcessPolicy.replication(k))
        mapping = initial_mapping(app, arch, policies)
        return app, policies, mapping

    def test_count_zero_is_identity(self):
        app, policies, mapping = self._solution()
        out_policies, out_mapping = apply_checkpoint_counts(
            app, policies, mapping, 0)
        assert out_policies is policies
        assert out_mapping is mapping

    def test_recovering_copies_rechekpointed_replicas_untouched(self):
        app, policies, mapping = self._solution()
        out_policies, out_mapping = apply_checkpoint_counts(
            app, policies, mapping, 2)
        for name, policy in out_policies.items():
            for plan in policy.copies:
                if plan.recoveries > 0:
                    assert plan.checkpoints == 2
                else:
                    assert plan.checkpoints == 0
        # Copy counts unchanged => mapping unchanged.
        assert dict(out_mapping.items()) == dict(mapping.items())

    def test_transform_preserves_tolerance(self):
        app, policies, mapping = self._solution()
        out_policies, __ = apply_checkpoint_counts(app, policies,
                                                   mapping, 3)
        out_policies.validate(app, 2)


class TestExplorer:
    def test_chunk_runner_is_pure(self):
        jobs = dse_jobs(SMALL_CONFIG)
        params = jobs[0].params_dict()
        first = run_dse_chunk(params)
        second = run_dse_chunk(params)
        assert first == second

    def test_serial_parallel_and_chunk_layout_identical(self):
        serial = run_dse(SMALL_CONFIG,
                         engine_config=EngineConfig(workers=1))
        parallel = run_dse(SMALL_CONFIG,
                           engine_config=EngineConfig(workers=4))
        assert serial.to_json() == parallel.to_json()
        rechunked = run_dse(
            DseConfig(workload=SMALL_CONFIG.workload,
                      space=SMALL_CONFIG.space,
                      chunks=5,
                      settings=SMALL_CONFIG.settings),
            engine_config=EngineConfig(workers=2))
        assert ([p.to_jsonable() for p in rechunked.frontier]
                == [p.to_jsonable() for p in serial.frontier])
        assert rechunked.archive.to_jsonable() \
            == serial.archive.to_jsonable()

    def test_every_candidate_accounted_for(self):
        report = run_dse(SMALL_CONFIG,
                         engine_config=EngineConfig(workers=1))
        assert (report.evaluated + report.duplicates
                + len(report.skipped) == report.candidates_total)

    def test_verify_frontier_flags_every_point(self, tmp_path):
        config = DseConfig(
            workload=SMALL_CONFIG.workload,
            space=SMALL_CONFIG.space,
            chunks=2,
            settings=SMALL_CONFIG.settings,
            verify_frontier=True,
        )
        report = run_dse(config,
                         engine_config=EngineConfig(workers=1))
        assert report.frontier
        for point in report.frontier:
            assert point.extras["certified"] is True
            assert point.extras["verified_scenarios"] > 0
        # The flag reaches the table, the JSON and the CSV.
        table = report.frontier_table()
        assert "cert" in table.splitlines()[0]
        payload = json.loads(report.to_json())
        assert payload["dse"]["verify_frontier"] is True
        assert all(p["extras"]["certified"] is True
                   for p in payload["frontier"])
        csv_path = tmp_path / "frontier.csv"
        report.write_csv(csv_path)
        rows = csv_path.read_text(encoding="utf-8").splitlines()
        assert rows[0].endswith("certified,verified_scenarios")
        assert all(",True," in row for row in rows[1:])
        assert any("certified" in line
                   for line in report.summary_lines())

    def test_verify_frontier_scenario_budget_skips(self):
        config = DseConfig(
            workload=SMALL_CONFIG.workload,
            space=SMALL_CONFIG.space,
            chunks=2,
            settings=SMALL_CONFIG.settings,
            verify_frontier=True,
            verify_max_scenarios=1,
        )
        report = run_dse(config,
                         engine_config=EngineConfig(workers=1))
        for point in report.frontier:
            assert point.extras["certified"] is None
            assert point.extras["verified_scenarios"] == 0
        assert any(p.rstrip().endswith("-")
                   for p in report.frontier_table().splitlines()[2:])

    def test_certification_derives_no_design_twice(self, monkeypatch):
        """Certifying reuses the chunks' designs and tables: tabu runs
        and exact table builds are exactly those of a plain run."""
        calls = {"synthesize": 0, "synthesize_schedule": 0}

        def counting(name, module):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting("synthesize", explorer)
        counting("synthesize_schedule", eval_core)
        counts = []
        for config in (SMALL_CONFIG, CERTIFYING_CONFIG):
            calls.update(synthesize=0, synthesize_schedule=0)
            report = run_dse(config,
                             engine_config=EngineConfig(workers=1))
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["synthesize_schedule"] > 0
        assert all(p.extras["certified"] is True
                   for p in report.frontier)

    def test_certifying_run_reruns_plain_journal(self, tmp_path):
        path = tmp_path / "dse.ckpt.jsonl"
        engine = EngineConfig(workers=1, checkpoint_path=path)
        plain = run_dse(SMALL_CONFIG, engine_config=engine)
        assert plain.executed_chunks == SMALL_CONFIG.chunks
        # The plain chunks carry no certificates: their params differ,
        # so none of them is merged into a certifying run.
        certified = run_dse(CERTIFYING_CONFIG, engine_config=engine)
        assert certified.executed_chunks == CERTIFYING_CONFIG.chunks
        assert certified.resumed_chunks == 0
        assert certified.frontier
        assert all(p.extras["certified"] is True
                   for p in certified.frontier)
        resumed = run_dse(CERTIFYING_CONFIG, engine_config=engine)
        assert resumed.resumed_chunks == CERTIFYING_CONFIG.chunks
        assert resumed.executed_chunks == 0
        assert resumed.to_json() == certified.to_json()

    def test_merge_rejects_missing_or_duplicate_certificates(self):
        cells = [run_dse_chunk(job.params_dict())
                 for job in dse_jobs(CERTIFYING_CONFIG)]
        frontier_index = merge_dse_cells(
            CERTIFYING_CONFIG, cells).frontier[0].index

        def without_row(cell):
            return dict(cell, certificates=[
                row for row in cell["certificates"]
                if row[0] != frontier_index])

        with pytest.raises(RuntimeError, match="no chunk certifies"):
            merge_dse_cells(CERTIFYING_CONFIG,
                            [without_row(c) for c in cells])
        with pytest.raises(RuntimeError, match="both certify"):
            merge_dse_cells(CERTIFYING_CONFIG, cells + cells[:1])

    def test_merge_rejects_disagreeing_chunks(self):
        cells = [run_dse_chunk(job.params_dict())
                 for job in dse_jobs(SMALL_CONFIG)]
        skewed = [*cells[:-1], dict(cells[-1], processes=0)]
        with pytest.raises(RuntimeError,
                           match="dse chunks disagree on 'processes'"):
            merge_dse_cells(SMALL_CONFIG, skewed)

    def test_checkpoint_insensitive_designs_deduplicated(self):
        # MR synthesizes pure replication (no recovering copies), so
        # only the first checkpoint count is evaluated per
        # transparency vector; the rest are counted as duplicates and
        # the frontier still contains MR designs.
        config = DseConfig(
            workload=SMALL_CONFIG.workload,
            space=SpaceConfig(strategies=("MR",), k_values=(1,),
                              checkpoint_counts=(0, 1, 2),
                              transparency_samples=0),
            chunks=2,
            settings=SMALL_CONFIG.settings,
        )
        report = run_dse(config, engine_config=EngineConfig(workers=1))
        assert report.duplicates == 2 * report.evaluated
        assert all(p.candidate["checkpoints"] == 0
                   for p in report.archive.points())
        assert report.archive.points()

    def test_resume_from_killed_checkpoint(self, tmp_path):
        path = tmp_path / "dse.ckpt.jsonl"
        reference = run_dse(
            SMALL_CONFIG,
            engine_config=EngineConfig(workers=1,
                                       checkpoint_path=path))
        assert reference.executed_chunks == SMALL_CONFIG.chunks
        # Simulate a kill: keep the first completed chunk, tear the
        # second record mid-line (as an interrupted write would).
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == SMALL_CONFIG.chunks
        path.write_text(lines[0] + "\n" + lines[1][:37],
                        encoding="utf-8")
        resumed = run_dse(
            SMALL_CONFIG,
            engine_config=EngineConfig(workers=1,
                                       checkpoint_path=path))
        assert resumed.resumed_chunks == 1
        assert resumed.executed_chunks == SMALL_CONFIG.chunks - 1
        assert resumed.to_json() == reference.to_json()

    def test_acceptance_8p2n_frontier_nontrivial(self):
        """ISSUE 3 acceptance: an 8-process/2-node exploration yields
        >= 3 mutually non-dominated designs."""
        config = DseConfig(
            workload={"processes": 8, "nodes": 2, "seed": 1},
            space=SpaceConfig(strategies=("MXR", "SFX"),
                              k_values=(1,),
                              checkpoint_counts=(0, 1),
                              transparency_samples=1),
            chunks=4,
            settings=TabuSettings(iterations=4, neighborhood=6,
                                  bus_contention=False),
        )
        report = run_dse(config, engine_config=EngineConfig(workers=1))
        frontier = report.frontier
        assert len(frontier) >= 3
        for a in frontier:
            for b in frontier:
                if a.index != b.index:
                    assert not dominates(a.objectives, b.objectives)

    def test_report_exports(self, tmp_path):
        report = run_dse(SMALL_CONFIG,
                         engine_config=EngineConfig(workers=1))
        json_path = tmp_path / "dse.json"
        csv_path = tmp_path / "dse.csv"
        report.write_json(json_path)
        report.write_csv(csv_path)
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["candidates_total"] == report.candidates_total
        assert len(payload["frontier"]) == len(report.frontier)
        header = csv_path.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("index,id,group,length")
        assert header.endswith("meets_deadline,certified,"
                               "verified_scenarios")
        table = report.frontier_table()
        assert "deadline" in table.splitlines()[0]
        # Every frontier row carries an explicit feasibility verdict
        # and a certification flag ('-' without --verify-frontier).
        for line in table.splitlines()[2:]:
            assert line.rstrip().endswith(("ok", "MISS", "yes",
                                           "FAIL", "-"))
        assert report.summary_lines()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DseConfig(chunks=0)
        with pytest.raises(ValueError):
            DseConfig(epsilons=(1.0, 1.0))
        with pytest.raises(ValueError):
            DseConfig(epsilons=(1.0, -1.0, 1.0))


class TestDseCli:
    def test_cli_runs_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "dse.json"
        code = cli_main([
            "dse", "--processes", "6", "--nodes", "2", "--seed", "3",
            "--k", "1", "--strategies", "MXR", "SFX",
            "--checkpoint-counts", "0",
            "--transparency-samples", "1",
            "--iterations", "4", "--neighborhood", "6",
            "--chunks", "2", "--workers", "1",
            "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "worst case" in captured
        assert "frontier" in captured
        assert out.exists()

    @pytest.mark.parametrize("extra, digest", [
        (["--chunks", "1"], "ad8a6b58d7c81f0d11a3f5660b858101"
                            "bf6e2bcfe63b3e89f64d5a8492796b64"),
        (["--chunks", "3"], "2014cf1b3dd60bd21231e5204317c544"
                            "4b1b303db9ef100a6f49e0c160e39108"),
        # Every design beyond the budget: all flags None.
        (["--chunks", "3", "--verify-max-scenarios", "1"],
         "efc5a86927d02496366af5064f77ef53"
         "f71df3ce80d72fb1b26229f32fc6f9ce"),
    ], ids=["chunks1", "chunks3", "skipped"])
    def test_certified_report_bytes_pinned(self, tmp_path, extra,
                                           digest):
        """Report bytes of the CI smoke command at two chunk layouts
        and with every design beyond the scenario budget."""
        out = tmp_path / "dse.json"
        assert cli_main(CERTIFY_COMMAND + extra
                        + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_cli_verify_frontier(self, capsys):
        code = cli_main([
            "dse", "--processes", "5", "--nodes", "2", "--seed", "3",
            "--k", "1", "--strategies", "MXR",
            "--checkpoint-counts", "0",
            "--transparency-samples", "0",
            "--iterations", "4", "--neighborhood", "4",
            "--chunks", "2", "--workers", "1",
            "--verify-frontier",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "frontier certification:" in captured
        assert "FAILED" not in captured
