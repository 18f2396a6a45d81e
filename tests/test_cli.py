"""Unit tests for the command-line interface."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synth_defaults(self):
        args = build_parser().parse_args(["synth"])
        assert args.strategy == "MXR"
        assert args.k == 2
        assert not args.tables

    def test_bad_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synth", "--strategy", "NOPE"])

    def test_bad_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--preset", "nope"])

    def test_batch_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch"])

    def test_batch_defaults(self):
        args = build_parser().parse_args(
            ["batch", "--experiment", "fig7"])
        assert args.profile == "quick"
        assert args.workers == 1
        assert args.checkpoint is None
        assert not args.no_resume

    def test_batch_experiment_choices(self, capsys):
        for name in ("fig7", "fig8", "campaign-sweep", "pareto"):
            args = build_parser().parse_args(
                ["batch", "--experiment", name])
            assert args.experiment == name
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["batch", "--experiment", "fig9"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        import repro
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out == f"repro {repro.__version__}"
        # Sourced from package metadata, not a drifting constant.
        assert repro.__version__[0].isdigit()


class TestCommands:
    def test_synth_synthetic(self, capsys):
        code = main(["synth", "--processes", "6", "--nodes", "2",
                     "--k", "1", "--iterations", "4",
                     "--neighborhood", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy MXR" in out
        assert "FTO" in out

    def test_synth_with_tables(self, capsys):
        code = main(["synth", "--processes", "4", "--nodes", "2",
                     "--k", "1", "--iterations", "4",
                     "--neighborhood", "4", "--tables"])
        out = capsys.readouterr().out
        assert code == 0
        assert "schedule table" in out
        assert "table memory" in out

    def test_synth_tables_enforce_preset_transparency(self, capsys):
        """The printed tables honour the preset's frozen processes and
        messages, like ``repro tables`` and ``repro verify`` do."""
        from repro.model import FaultModel
        from repro.schedule import render_schedule_set, synthesize_schedule
        from repro.synthesis import TabuSettings, synthesize
        from repro.verify.runner import load_verify_workload

        code = main(["synth", "--preset", "fig5", "--k", "2",
                     "--iterations", "4", "--neighborhood", "4",
                     "--tables"])
        out = capsys.readouterr().out
        assert code == 0
        app, arch, transparency = load_verify_workload({"preset": "fig5"})
        fault_model = FaultModel(k=2)
        result = synthesize(app, arch, fault_model, "MXR",
                            settings=TabuSettings(iterations=4,
                                                  neighborhood=4, seed=1))
        schedule = synthesize_schedule(app, arch, result.mapping,
                                       result.policies, fault_model,
                                       transparency)
        assert render_schedule_set(schedule) in out

    def test_tables_fig5(self, capsys):
        code = main(["tables", "--preset", "fig5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "P3" in out
        assert "F[" in out  # condition rows

    def test_verify_ok(self, capsys):
        code = main(["verify", "--processes", "4", "--nodes", "2",
                     "--k", "1", "--iterations", "4",
                     "--neighborhood", "4", "--chunks", "2",
                     "--workers", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all scenarios tolerated" in out
        assert "CERTIFIED" in out
        assert "simulated exhaustively" in out

    def test_verify_preset_fig3(self, capsys):
        code = main(["verify", "--preset", "fig3", "--k", "1",
                     "--iterations", "4", "--neighborhood", "4",
                     "--chunks", "2", "--workers", "1"])
        assert code == 0

    def test_verify_fig5_transparency_and_json(self, capsys,
                                               tmp_path):
        out_path = tmp_path / "verify.json"
        code = main(["verify", "--preset", "fig5", "--k", "2",
                     "--iterations", "4", "--neighborhood", "4",
                     "--chunks", "2", "--workers", "1",
                     "--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "transparency violations 0" in out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["certified"] is True
        assert payload["verify"]["workload"] == "fig5"

    def test_synth_preset_cruise(self, capsys):
        code = main(["synth", "--preset", "cruise", "--k", "1",
                     "--iterations", "4", "--neighborhood", "4",
                     "--strategy", "MX"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cruise-controller" in out


@pytest.fixture
def tiny_quick_profiles(monkeypatch):
    """Shrink the quick profiles so CLI sweep tests stay fast."""
    from repro.experiments.campaign import CampaignSweepConfig
    from repro.experiments.fig7 import Fig7Config
    from repro.experiments.fig8 import Fig8Config
    from repro.synthesis.tabu import TabuSettings

    tiny = TabuSettings(iterations=4, neighborhood=4,
                        bus_contention=False)
    monkeypatch.setattr(
        Fig7Config, "quick",
        classmethod(lambda cls: cls(sizes=(8,), seeds=(1,),
                                    settings=tiny)))
    monkeypatch.setattr(
        Fig8Config, "quick",
        classmethod(lambda cls: cls(sizes=(8,), seeds=(1,),
                                    settings=tiny)))
    monkeypatch.setattr(
        CampaignSweepConfig, "quick",
        classmethod(lambda cls: cls(sizes=(4, 5), seeds=(1,), k=1,
                                    samples=6, settings=tiny)))


class TestBatchCommand:
    def test_batch_fig7_writes_outputs(self, tiny_quick_profiles,
                                       tmp_path, capsys):
        out = tmp_path / "r.json"
        csv = tmp_path / "r.csv"
        ckpt = tmp_path / "ckpt.jsonl"
        code = main(["batch", "--experiment", "fig7",
                     "--checkpoint", str(ckpt),
                     "--out", str(out), "--csv", str(csv)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "1 executed, 0 resumed" in printed
        assert "cache hit rate" in printed
        assert out.exists() and csv.exists() and ckpt.exists()

    def test_batch_fig7_resumes(self, tiny_quick_profiles, tmp_path,
                                capsys):
        ckpt = tmp_path / "ckpt.jsonl"
        main(["batch", "--experiment", "fig7",
              "--checkpoint", str(ckpt)])
        capsys.readouterr()
        code = main(["batch", "--experiment", "fig7",
                     "--checkpoint", str(ckpt)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "0 executed, 1 resumed" in printed

    def test_batch_fig8_runs(self, tiny_quick_profiles, capsys):
        code = main(["batch", "--experiment", "fig8"])
        printed = capsys.readouterr().out
        assert code == 0
        assert "FTO[27]" in printed

    @pytest.mark.parametrize("experiment, json_digest, csv_digest", [
        ("fig7",
         "71443463bc15dbe10fea7753bb2d83fd"
         "acda13342ef30c9082d13a50e11c7d2f",
         "950b6c7a116eebf2c8228f6f294a5039"
         "e27675efebec3b3a884399fd611501ae"),
        ("fig8",
         "5d2975a9bd954af32389bbf88265ec65"
         "2a0cc80dcfb0f1c725c2748fd6795160",
         "3183eee2602de6a60b720ffae151a7ee"
         "6b7b3f96c3b67265430e1f09c85b6176"),
    ], ids=["fig7", "fig8"])
    def test_batch_fig_report_bytes_pinned(self, tiny_quick_profiles,
                                           tmp_path, capsys, experiment,
                                           json_digest, csv_digest):
        """The --out and --csv bytes of the paper sweeps."""
        out = tmp_path / "r.json"
        csv = tmp_path / "r.csv"
        assert main(["batch", "--experiment", experiment,
                     "--out", str(out), "--csv", str(csv)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == json_digest
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_digest

    @pytest.mark.parametrize("experiment, comparison", [
        ("fig7", "measured averages: MR "),
        ("fig8", "paper: deviation grows with application size"),
    ], ids=["fig7", "fig8"])
    def test_batch_fig_prints_cells_and_paper_comparison(
            self, tiny_quick_profiles, tmp_path, capsys, experiment,
            comparison):
        ckpt = tmp_path / "ckpt.jsonl"
        argv = ["batch", "--experiment", experiment,
                "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert f"  {experiment}/size=8/seed=1\n" in printed
        assert comparison in printed
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert f"  {experiment}/size=8/seed=1 (resumed)\n" in printed

    def test_batch_campaign_sweep_prints_rows(self, tiny_quick_profiles,
                                              capsys):
        from repro.experiments.campaign import (
            ROW_HEADER,
            CampaignSweepConfig,
            run_campaign_sweep,
        )
        from repro.experiments.reporting import render_rows

        rows = run_campaign_sweep(CampaignSweepConfig.quick())
        code = main(["batch", "--experiment", "campaign-sweep"])
        printed = capsys.readouterr().out
        assert code == 0
        assert render_rows(ROW_HEADER,
                           [row.as_cells() for row in rows]) in printed
        assert "2 cells (2 executed, 0 resumed)" in printed
        assert "  campaign-sweep/size=4/seed=1\n" in printed

    def test_batch_pareto_matches_sweep_writers(self, tmp_path, capsys):
        """Serial and parallel runs write the sweep report of
        run_pareto_sweep byte for byte."""
        from repro.experiments.pareto import (
            ParetoSweepConfig,
            run_pareto_sweep,
            write_sweep_csv,
            write_sweep_json,
        )

        reports = run_pareto_sweep(ParetoSweepConfig.quick())
        write_sweep_json(reports, tmp_path / "expected.json")
        write_sweep_csv(reports, tmp_path / "expected.csv")
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.json"
            csv = tmp_path / f"w{workers}.csv"
            assert main(["batch", "--experiment", "pareto",
                         "--profile", "quick", "--workers", workers,
                         "--out", str(out), "--csv", str(csv)]) == 0
            assert out.read_bytes() == \
                (tmp_path / "expected.json").read_bytes()
            assert csv.read_bytes() == \
                (tmp_path / "expected.csv").read_bytes()
        printed = capsys.readouterr().out
        assert "frontier after epsilon sparsification" in printed


class TestCampaignCommand:
    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.sampler == "stratified"
        assert args.samples == 200
        assert args.chunks == 4
        assert args.workers == 4
        assert args.checkpoint is None

    def test_campaign_bad_sampler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--sampler", "nope"])

    def test_campaign_preset_choices(self):
        args = build_parser().parse_args(
            ["campaign", "--preset", "forkjoin"])
        assert args.preset == "forkjoin"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "--preset", "fig5"])

    def test_new_workload_presets_accepted(self):
        for preset in ("chain", "forkjoin", "bursty"):
            args = build_parser().parse_args(
                ["synth", "--preset", preset])
            assert args.preset == preset

    def test_campaign_runs_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        ckpt = tmp_path / "campaign.ckpt.jsonl"
        argv = ["campaign", "--processes", "5", "--nodes", "2",
                "--seed", "3", "--k", "1", "--samples", "8",
                "--chunks", "2", "--iterations", "4",
                "--neighborhood", "4", "--checkpoint", str(ckpt),
                "--out", str(out)]
        code = main(argv)
        printed = capsys.readouterr().out
        assert code == 0
        assert "plans simulated" in printed
        assert "plans beyond the estimate bound 0" in printed
        assert out.exists() and ckpt.exists()
        # A rerun resumes every chunk and reproduces the report.
        before = out.read_text()
        code = main(argv)
        printed = capsys.readouterr().out
        assert code == 0
        assert "0 executed, 2 resumed" in printed
        assert out.read_text() == before

    def test_campaign_certify(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        code = main(["campaign", "--processes", "4", "--nodes", "2",
                     "--seed", "3", "--k", "1", "--samples", "4",
                     "--chunks", "2", "--workers", "1",
                     "--iterations", "4", "--neighborhood", "4",
                     "--certify", "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "CERTIFIED" in printed
        assert "verified exhaustively" in printed
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["verification"]["certified"] is True


class TestEngineFlagValidation:
    """Invalid engine flag combinations die at parse time with a
    usage error, not mid-sweep with a traceback."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--workers", "0"],
        ["verify", "--chunks", "-2"],
        ["batch", "--experiment", "fig7", "--workers", "nope"],
        ["dse", "--lease-size", "0"],
        ["campaign", "--lease-timeout", "0"],
        ["worker", "--workdir", "wd", "--lease-timeout", "-1"],
        # Scenario ceilings below 1 die before any work runs.
        ["verify", "--max-scenarios", "0"],
        ["campaign", "--certify", "--certify-max-scenarios", "0"],
        ["dse", "--verify-frontier", "--verify-max-scenarios", "0"],
        # Out-of-range workload, fault and DES knobs: a usage error,
        # not a traceback from a config constructor.
        ["synth", "--k", "-1"],
        ["synth", "--processes", "0"],
        ["verify", "--k", "-1"],
        ["verify", "--des-scenarios", "-1"],
        ["verify", "--intermittent", "-1"],
        ["verify", "--slot-faults", "-1"],
        ["verify", "--jitter", "-0.5"],
        ["campaign", "--samples", "-3"],
        ["campaign", "--jitter", "-1"],
        ["campaign", "--intermittent", "-1"],
        ["campaign", "--slot-faults", "-2"],
        ["dse", "--epsilon-length", "0"],
        ["dse", "--epsilon-transparency", "-0.1"],
        ["dse", "--epsilon-memory", "nan"],
        ["dse", "--checkpoint-counts", "-1"],
        ["dse", "--transparency-samples", "-2"],
        ["dse", "--k", "0"],
        # Negative tabu budgets: no search would run.
        ["synth", "--iterations", "-1"],
        ["verify", "--neighborhood", "-1"],
        ["campaign", "--iterations", "-1"],
        ["dse", "--neighborhood", "-4"],
        # A non-finite release jitter once hung the DES event queue.
        ["verify", "--jitter", "inf"],
        ["campaign", "--jitter", "inf"],
    ])
    def test_bad_values_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, hint", [
        (["verify", "--backend", "workdir"], "--workdir"),
        (["dse", "--backend", "serial", "--workdir", "wd"],
         "workdir backend"),
        (["batch", "--experiment", "fig7", "--workdir", "wd",
          "--checkpoint", "c.jsonl"], "the workdir is the checkpoint"),
    ])
    def test_bad_combinations_rejected(self, argv, hint, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert hint in capsys.readouterr().err

    def test_bogus_backend_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--backend", "threads"])
        assert "invalid choice" in capsys.readouterr().err


class TestWorkdirCli:
    VERIFY = ["verify", "--processes", "5", "--nodes", "2",
              "--seed", "1", "--k", "1", "--iterations", "4",
              "--neighborhood", "4", "--chunks", "2"]

    def test_verify_workdir_matches_serial(self, tmp_path, capsys):
        serial_out = tmp_path / "serial.json"
        workdir_out = tmp_path / "workdir.json"
        assert main([*self.VERIFY, "--backend", "serial",
                     "--out", str(serial_out)]) == 0
        assert main([*self.VERIFY, "--backend", "workdir",
                     "--workdir", str(tmp_path / "wd"),
                     "--out", str(workdir_out)]) == 0
        capsys.readouterr()
        assert workdir_out.read_bytes() == serial_out.read_bytes()

    def test_worker_drains_a_workdir(self, tmp_path, capsys):
        from repro.engine import BatchJob, Workdir

        jobs = [BatchJob.create(f"cell-{i}", "engine_runners:echo",
                                name=f"cell-{i}", value=i)
                for i in range(3)]
        Workdir(tmp_path / "wd").initialize(jobs, lease_size=1)
        code = main(["worker", "--workdir", str(tmp_path / "wd"),
                     "--worker-id", "cli-worker", "--max-idle", "1"])
        printed = capsys.readouterr().out
        assert code == 0
        assert "3 job(s) executed" in printed
        # The drained workdir resumes: the engine recomputes nothing.
        from repro.engine import BatchEngine, EngineConfig
        report = BatchEngine(EngineConfig(
            workdir=tmp_path / "wd", lease_size=1)).run(jobs)
        assert report.resumed == 3

    def test_cache_dir_flag_exports_environment(self, tmp_path,
                                                monkeypatch,
                                                capsys):
        import os

        from repro.eval import CACHE_DIR_ENV

        # setenv (not delenv) so teardown removes whatever main()
        # exported and the variable never leaks into later tests.
        monkeypatch.setenv(CACHE_DIR_ENV, "")
        cache = tmp_path / "cache"
        assert main([*self.VERIFY, "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert os.environ[CACHE_DIR_ENV] == str(cache)
        assert any(cache.rglob("*.pkl"))


#: Modules only running a command may import: the schedulers, the
#: estimator, the kernels, the DES engine and the commands' drivers.
HEAVY_MODULES = frozenset((
    "repro.schedule.conditional", "repro.schedule.estimation",
    "repro.eval.core", "repro.kernels.batch", "repro.des.online",
    "repro.verify.core", "repro.dse.explorer", "repro.campaigns.runner",
    "repro.synthesis.tabu", "repro.experiments.fig7"))


def _repro_modules_after(code: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(src), env.get("PYTHONPATH"))))
    script = code + textwrap.dedent("""
        import sys
        print(" ".join(name for name in sys.modules
                       if name == "repro" or name.startswith("repro.")))
    """)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


class TestImportCost:
    """A command imports only what it runs (package re-exports resolve
    on first access, handlers import their layers)."""

    def test_import_cli_loads_only_the_cli(self):
        assert _repro_modules_after("import repro.cli") \
            == {"repro", "repro._lazy", "repro.cli"}

    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_parsing_imports_no_command_layer(self, flag):
        loaded = _repro_modules_after(textwrap.dedent(f"""
            import contextlib
            import io

            from repro.cli import main

            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    main([{flag!r}])
                except SystemExit:
                    pass
        """))
        assert "repro.cli" in loaded
        assert not loaded & HEAVY_MODULES, sorted(loaded & HEAVY_MODULES)
