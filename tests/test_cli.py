"""Tests for the experiment-runner CLI."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

from .test_kill_resume import cli_env


def test_cli_start_up_imports_no_numpy():
    """`import repro` and CLI start-up are stdlib-only: numpy loads
    lazily with the engine that needs it, and nothing in the sweep
    runtime touches shared memory."""
    probe = (
        "import repro.cli, sys\n"
        "loaded = [name for name in ('numpy', "
        "'multiprocessing.shared_memory') if name in sys.modules]\n"
        "assert not loaded, loaded"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env=cli_env(),
    )
    assert done.returncode == 0, done.stderr


def test_bare_install_runs_reference_and_fast_but_not_vector():
    """With numpy unimportable, the package, the CLI and the reference
    and fast engines still work, and asking for the vector engine
    raises a plain ``ImportError`` naming the ``fast`` extra."""
    probe = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import repro, repro.cli\n"
        "from repro.simulator import ExperimentSpec, build_simulation\n"
        "for engine in ('reference', 'fast'):\n"
        "    spec = ExperimentSpec(size=16, seed=3, engine=engine)\n"
        "    build_simulation(spec).run(3, stop_when_perfect=False)\n"
        "try:\n"
        "    build_simulation(ExperimentSpec(size=16, engine='vector'))\n"
        "except ImportError as exc:\n"
        "    assert 'fast' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('vector engine built without numpy')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env=cli_env(),
    )
    assert done.returncode == 0, done.stderr


def test_vector_package_import_names_fast_extra():
    """Importing the vector engine package itself without numpy fails
    with the plain ``ImportError``, not a numpy traceback."""
    probe = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "try:\n"
        "    import repro.engine_vector\n"
        "except ImportError as exc:\n"
        "    assert 'fast' in str(exc) and 'numpy' in str(exc), exc\n"
        "    assert exc.__cause__ is None and exc.__suppress_context__\n"
        "else:\n"
        "    raise AssertionError('repro.engine_vector imported without numpy')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env=cli_env(),
    )
    assert done.returncode == 0, done.stderr


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bootstrap_defaults(self):
        args = build_parser().parse_args(["bootstrap"])
        assert args.size == 1024
        assert args.seed == 1
        assert args.drop == 0.0

    def test_figure3_exponents(self):
        args = build_parser().parse_args(
            ["figure3", "--exponents", "8", "9"]
        )
        assert args.exponents == [8, 9]

    def test_figure_commands_take_workers(self):
        args = build_parser().parse_args(["figure3", "--workers", "4"])
        assert args.workers == 4
        args = build_parser().parse_args(["figure4", "--workers", "2"])
        assert args.workers == 2

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.sizes == [256, 1024]
        assert args.drops == [0.0]
        assert args.replicas == 3
        assert args.workers == 1


class TestCommands:
    def test_bootstrap_runs(self, capsys):
        code = main(["bootstrap", "--size", "64", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged" in out
        assert "missing-entry proportions" in out

    def test_figure3_runs(self, capsys):
        code = main(
            ["figure3", "--exponents", "6", "--seed", "3",
             "--max-cycles", "30"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 3 (top)" in out
        assert "Figure 3 (bottom)" in out

    def test_figure4_defaults_to_drop(self, capsys):
        code = main(
            ["figure4", "--exponents", "6", "--seed", "3",
             "--max-cycles", "40"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 4" in out

    def test_churn_runs(self, capsys):
        code = main(
            ["churn", "--size", "64", "--rate", "0.01", "--seed", "3",
             "--max-cycles", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "churn" in out

    def test_sweep_runs(self, capsys):
        code = main(
            ["sweep", "--sizes", "32", "--drops", "0.0", "0.2",
             "--replicas", "2", "--max-cycles", "30", "--seed", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep: 4 runs" in out
        assert "engine throughput per shard" in out

    def test_sweep_parallel_matches_sequential(self, capsys):
        argv = ["sweep", "--sizes", "32", "--replicas", "2",
                "--max-cycles", "30", "--seed", "5"]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out

        def statistics(text):
            return [
                line
                for line in text.splitlines()
                if not line.startswith("sweep:")
                and not line.startswith("engine throughput")
            ]

        assert statistics(sequential) == statistics(parallel)

    def test_sweep_schedule_flag(self, capsys):
        code = main(
            ["sweep", "--sizes", "48", "--replicas", "1",
             "--max-cycles", "10", "--seed", "3",
             "--schedule", "churn:rate=0.02"]
        )
        out = capsys.readouterr().out
        assert code == 0
        # The schedule shows up as part of the cell coordinate.
        assert "churn:rate=0.02" in out

    def test_sweep_bad_schedule_kind_lists_registry(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--schedule", "meteor_strike:rate=1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "catastrophe" in err and "churn" in err

    def test_aggregate_runs(self, capsys):
        code = main(["aggregate", "--size", "32", "--max-cycles", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "push-pull averaging" in out

    def test_broadcast_runs(self, capsys):
        code = main(["broadcast", "--size", "128", "--fanout", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "reliability" in out


class TestScenariosCLI:
    def test_list_prints_catalogue(self, capsys):
        code = main(["scenarios", "list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "figure3" in out
        assert "paper_scale" in out
        assert "paper claim" in out

    def test_show_emits_round_trippable_json(self, capsys):
        code = main(["scenarios", "show", "churn"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["name"] == "churn"
        assert len(data["grid"]["schedule_sets"]) == 4

    def test_show_unknown_scenario(self, capsys):
        code = main(["scenarios", "show", "bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert "known scenarios" in captured.err

    def test_run_smoke(self, capsys):
        code = main(["scenarios", "run", "engines_shootout", "--smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario engines_shootout" in out
        assert "cycles to perfect tables" in out
        assert "cycles per CPU-second" in out

    def test_run_engine_override(self, capsys):
        code = main(
            ["scenarios", "run", "figure3", "--smoke",
             "--engine", "fast"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "claim:" in out

    def test_run_unknown_scenario(self, capsys):
        code = main(["scenarios", "run", "bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert "known scenarios" in captured.err

    def test_run_unrunnable_spec_file(self, capsys, tmp_path):
        """A spec file whose grid names a fractional size exits 2 with
        one line on stderr before any shard starts."""
        code = main(["scenarios", "show", "figure3"])
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        document["grid"]["sizes"] = [16.5]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code = main(["scenarios", "run", "--spec-file", str(path), "--smoke"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "grid sizes must be integers >= 2" in captured.err

    def test_run_fractional_base_seed_spec_file(self, capsys, tmp_path):
        """A fractional base seed is refused, not truncated: 7.5 would
        otherwise run silently as seed 7."""
        code = main(["scenarios", "show", "figure3"])
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        document["grid"]["base_seed"] = 7.5
        path = tmp_path / "bad_seed.json"
        path.write_text(json.dumps(document))
        code = main(["scenarios", "run", "--spec-file", str(path), "--smoke"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "base_seed must be an integer, got 7.5\n"


class TestChaosCLI:
    def test_list_prints_catalogue(self, capsys):
        code = main(["chaos", "list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos_partition_heal" in out
        assert "chaos_flash_crowd" in out
        assert "chaos_targeted_kill" in out

    def test_show_emits_round_trippable_json(self, capsys):
        code = main(["chaos", "show", "chaos_partition_heal"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["name"] == "chaos_partition_heal"
        assert [e["kind"] for e in data["schedule"]["events"]] == [
            "partition",
            "heal",
        ]

    def test_show_unknown_scenario(self, capsys):
        code = main(["chaos", "show", "bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert "known scenarios" in captured.err

    def test_run_smoke_exit_zero_on_reconvergence(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code = main(
            ["chaos", "run", "chaos_partition_heal", "--smoke",
             "--json-out", str(out_file)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "re-converged" in out
        assert "time to functional" in out
        report = json.loads(out_file.read_text())
        assert report["converged"] is True
        assert report["time_to_functional"] is not None

    def test_run_seed_override(self, capsys):
        code = main(
            ["chaos", "run", "chaos_partition_heal", "--smoke",
             "--seed", "321"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "321" in out

    def test_run_unknown_scenario(self, capsys):
        code = main(["chaos", "run", "bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert "known scenarios" in captured.err
