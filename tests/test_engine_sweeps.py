"""Fig. 7 / Fig. 8 sweeps through the batch engine.

The acceptance contract of the engine refactor: fanning a sweep out
over worker processes changes nothing — results are cell-for-cell
equal and the exported reports are byte-identical — and a resumed
sweep recomputes nothing.
"""

from __future__ import annotations

import json

from repro.engine import BatchEngine, EngineConfig
from repro.experiments import fig7, fig8
from repro.synthesis.tabu import TabuSettings

TINY_SETTINGS = TabuSettings(iterations=4, neighborhood=4,
                             bus_contention=False)
TINY7 = fig7.Fig7Config(sizes=(8,), seeds=(1, 2),
                        settings=TINY_SETTINGS)
TINY8 = fig8.Fig8Config(sizes=(8,), seeds=(1, 2),
                        settings=TINY_SETTINGS)


class TestParallelEqualsSerial:
    def test_fig7_cells_identical(self, tmp_path):
        jobs = fig7.fig7_jobs(TINY7)
        serial = BatchEngine(EngineConfig(workers=1)).run(jobs)
        parallel = BatchEngine(EngineConfig(workers=2)).run(jobs)
        assert parallel.results() == serial.results()

        for report, name in ((serial, "serial"), (parallel, "par")):
            report.write_json(tmp_path / f"{name}.json")
            report.write_csv(tmp_path / f"{name}.csv")
        assert (tmp_path / "serial.json").read_bytes() == \
            (tmp_path / "par.json").read_bytes()
        assert (tmp_path / "serial.csv").read_bytes() == \
            (tmp_path / "par.csv").read_bytes()

    def test_fig8_cells_identical(self):
        jobs = fig8.fig8_jobs(TINY8)
        serial = BatchEngine(EngineConfig(workers=1)).run(jobs)
        parallel = BatchEngine(EngineConfig(workers=2)).run(jobs)
        assert parallel.results() == serial.results()

    def test_run_fig7_workers_same_rows(self):
        rows_serial = fig7.run_fig7(TINY7)
        rows_parallel = fig7.run_fig7(
            TINY7, engine_config=EngineConfig(workers=2))
        assert rows_parallel == rows_serial


class TestCellContract:
    def test_fig7_cell_pure_and_json_stable(self):
        params = fig7.fig7_jobs(TINY7)[0].params_dict()
        first = fig7.run_fig7_cell(params)
        second = fig7.run_fig7_cell(params)
        assert first == second
        # Checkpoint round-trip must preserve the cell exactly.
        assert json.loads(json.dumps(first)) == first

    def test_fig8_cell_pure_and_json_stable(self):
        params = fig8.fig8_jobs(TINY8)[0].params_dict()
        first = fig8.run_fig8_cell(params)
        assert json.loads(json.dumps(first)) == first

    def test_cell_caching_observable(self):
        cell = fig7.run_fig7_cell(
            fig7.fig7_jobs(TINY7)[0].params_dict())
        assert cell["cache_hits"] > 0
        assert cell["cache_misses"] > 0

    def test_cells_independent_of_grid_position(self):
        """A cell recomputed alone matches the cell from a full grid."""
        jobs = fig7.fig7_jobs(TINY7)
        full = BatchEngine(EngineConfig()).run(jobs)
        alone = fig7.run_fig7_cell(jobs[1].params_dict())
        assert full.results()[1] == alone


class TestResume:
    def test_resume_skips_completed_sweep_cells(self, tmp_path):
        ckpt = tmp_path / "fig7.jsonl"
        jobs = fig7.fig7_jobs(TINY7)
        first = BatchEngine(EngineConfig(
            checkpoint_path=ckpt)).run(jobs)
        assert first.executed == len(jobs)

        resumed = BatchEngine(EngineConfig(
            checkpoint_path=ckpt)).run(jobs)
        assert resumed.executed == 0
        assert resumed.resumed == len(jobs)
        assert resumed.results() == first.results()
        assert fig7.rows_from_cells(resumed.results()) == \
            fig7.rows_from_cells(first.results())

    def test_changed_settings_invalidate_cells(self, tmp_path):
        ckpt = tmp_path / "fig7.jsonl"
        BatchEngine(EngineConfig(checkpoint_path=ckpt)).run(
            fig7.fig7_jobs(TINY7))
        changed = fig7.Fig7Config(
            sizes=TINY7.sizes, seeds=TINY7.seeds,
            settings=TabuSettings(iterations=5, neighborhood=4,
                                  bus_contention=False))
        report = BatchEngine(EngineConfig(checkpoint_path=ckpt)).run(
            fig7.fig7_jobs(changed))
        assert report.resumed == 0
        assert report.executed == len(TINY7.sizes) * len(TINY7.seeds)
