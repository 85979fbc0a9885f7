"""The import budget: each entry path loads only the layers it runs.

The package ``__init__`` modules export their names lazily
(:mod:`repro._lazy`) and each CLI handler imports the layers it calls,
so building a reference simulation loads ``core``, ``sampling`` and
``simulator`` only, and no subcommand pays for a layer it does not
use.  Every entry path runs in a fresh interpreter, which reports the
``repro`` modules and the heavy stdlib / optional packages it loaded.
``python -X importtime`` shows the same per module, with times.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from .test_kill_resume import cli_env

#: Heavy modules whose loading the budget tracks besides ``repro.*``.
WATCHED = ("asyncio", "concurrent.futures", "multiprocessing", "numpy")

#: Every package whose ``__init__`` exports names lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.net",
    "repro.runtime",
    "repro.sampling",
    "repro.scenarios",
    "repro.simulator",
)

_REPORT = (
    "import json, sys\n"
    "print(json.dumps({\n"
    "    'repro': sorted(m for m in sys.modules if m.startswith('repro.')),\n"
    f"    'watched': [m for m in {WATCHED!r} if m in sys.modules],\n"
    "}))\n"
)


def _probe(code: str) -> dict:
    """Run *code* in a fresh interpreter and report what it loaded."""
    done = subprocess.run(
        [sys.executable, "-c", code + "\n" + _REPORT],
        capture_output=True,
        text=True,
        timeout=120,
        env=cli_env(),
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    # ``repro.cli`` -> ``cli``; ``repro.core.protocol`` -> ``core``.
    report["units"] = sorted({name.split(".")[1] for name in report["repro"]})
    return report


def _cli(*argv: str) -> dict:
    """What ``python -m repro <argv>`` loads (its output is discarded)."""
    return _probe(
        "import contextlib, io, runpy, sys\n"
        f"sys.argv = ['repro', *{list(argv)!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        assert not exc.code, exc.code\n"
    )


class TestLibraryEntryPaths:
    def test_bare_package_import_loads_nothing(self):
        report = _probe("import repro")
        assert report["repro"] == ["repro._lazy"]
        assert report["watched"] == []

    def test_subpackages_stay_reachable_as_attributes(self):
        report = _probe("import repro\nrepro.simulator.experiment.build_simulation")
        assert report["units"] == ["_lazy", "core", "sampling", "simulator"]

    def test_reference_simulation_loads_only_the_protocol_layers(self):
        report = _probe(
            "from repro.simulator.experiment import ExperimentSpec, build_simulation\n"
            "build_simulation(ExperimentSpec(size=16, seed=3)).run(3)\n"
        )
        assert report["units"] == ["_lazy", "core", "sampling", "simulator"]
        assert report["watched"] == []

    def test_root_export_loads_only_its_layer(self):
        report = _probe(
            "from repro import BootstrapSimulation\n"
            "BootstrapSimulation(16, seed=3).run(3)\n"
        )
        assert report["units"] == ["_lazy", "core", "sampling", "simulator"]
        assert report["watched"] == []

    def test_runtime_brings_its_pool_but_not_the_live_stack(self):
        report = _probe("from repro.runtime import SweepGrid")
        assert report["units"] == ["_lazy", "core", "runtime", "sampling", "simulator"]
        assert report["watched"] == ["concurrent.futures", "multiprocessing"]

    def test_wire_codec_needs_no_event_loop(self):
        report = _probe("import repro.net.codec")
        assert report["units"] == ["_lazy", "core", "net"]
        assert report["watched"] == []


class TestCliEntryPaths:
    def test_check_loads_only_the_analyzer(self):
        report = _cli("check", "--list-rules")
        assert report["units"] == ["_lazy", "cli", "devtools", "seams"]
        assert report["watched"] == []

    def test_bootstrap(self):
        report = _cli("bootstrap", "--size", "16", "--max-cycles", "3")
        assert report["units"] == [
            "_lazy", "analysis", "cli", "core", "sampling", "simulator",
        ]  # fmt: skip
        assert report["watched"] == []

    def test_broadcast_runs_no_simulator(self):
        report = _cli("broadcast", "--size", "16")
        # The parser's --engine choices live in the simulator package's
        # own __init__, which loads none of its modules.
        assert report["units"] == [
            "_lazy", "analysis", "cli", "components", "core", "simulator",
        ]  # fmt: skip
        assert not [m for m in report["repro"] if m.startswith("repro.simulator.")]
        assert report["watched"] == []

    def test_scenarios_list_skips_the_live_stack(self):
        report = _cli("scenarios", "list")
        assert report["units"] == [
            "_lazy", "analysis", "cli", "core", "runtime", "sampling",
            "scenarios", "simulator",
        ]  # fmt: skip
        assert "repro.scenarios.chaos" not in report["repro"]
        assert report["watched"] == ["concurrent.futures", "multiprocessing"]

    def test_chaos_list_skips_the_sweep_runtime(self):
        report = _cli("chaos", "list")
        assert report["units"] == [
            "_lazy", "analysis", "cli", "core", "net", "sampling",
            "scenarios", "seams", "simulator",
        ]  # fmt: skip
        assert "repro.scenarios.registry" not in report["repro"]
        assert "multiprocessing" not in report["watched"]
        assert "numpy" not in report["watched"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_in_a_fresh_interpreter(package):
    """Each ``__all__`` name resolves, ``import *`` binds it, and
    ``dir()`` lists it, starting from a cold interpreter (an import
    cycle hidden by an eager ``__init__`` would show here)."""
    _probe(
        "import importlib\n"
        f"module = importlib.import_module({package!r})\n"
        "names = list(module.__all__)\n"
        "assert len(set(names)) == len(names), names\n"
        "missing = [n for n in names if n not in dir(module)]\n"
        "assert not missing, missing\n"
        "for name in names:\n"
        "    getattr(module, name)\n"
        "scope = {}\n"
        f"exec('from {package} import *', scope)\n"
        "assert set(names) <= set(scope), set(names) - set(scope)\n"
    )


def test_lazy_names_are_cached_and_unknown_names_raise():
    import repro.core

    probe = repro.core.IDSpace
    assert vars(repro.core)["IDSpace"] is probe
    assert repro.core.idspace.IDSpace is probe
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        repro.core.no_such_name  # noqa: B018
