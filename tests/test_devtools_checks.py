"""The invariant analyzer, exercised both ways on its fixture corpus.

Every rule in ``repro check`` has at least one ``*_bad.py`` fixture it
must flag and one ``*_good.py`` fixture it must pass, plus the
self-check at the bottom: the analyzer runs clean over this repo, so
the CI gate (``repro check`` exit 0) is also a collected test.
"""

from pathlib import Path

import pytest

from repro import seams
from repro.cli import main as cli_main
from repro.devtools import main as check_main
from repro.devtools import render_report, run_checks
from repro.devtools.findings import RULES, SourceFile
from repro.devtools.layering import LAYER_CONTRACT, check_layering
from repro.devtools.runner import ENGINE_UNITS, check_source, find_repo_root
from repro.devtools.seam_check import check_readme

FIXTURES = Path(__file__).parent / "fixtures" / "repro_check"

#: Synthetic repo-relative paths placing a fixture in a rule's scope.
ENGINE_REL = "src/repro/core/fixture.py"
RUNTIME_REL = "src/repro/runtime/fixture.py"
BENCH_REL = "benchmarks/fixture.py"


def load(name: str, rel: str = ENGINE_REL) -> SourceFile:
    return SourceFile.load(FIXTURES / name, rel)


def scan(name: str, rel: str = ENGINE_REL):
    return check_source(load(name, rel))


def only(findings, rule: str):
    return [finding for finding in findings if finding.rule == rule]


# -- determinism lint --------------------------------------------------


def test_module_random_flags_global_draws():
    findings = only(scan("module_random_bad.py"), "module-random")
    assert len(findings) == 3  # shuffle, random, np.random.rand
    assert all("random" in f.message for f in findings)


def test_module_random_allows_constructors():
    assert only(scan("module_random_good.py"), "module-random") == []


def test_module_random_scoped_to_engine_units():
    assert only(scan("module_random_bad.py", RUNTIME_REL), "module-random") == []


def test_wall_clock_flags_unmarked_reads():
    findings = only(scan("wall_clock_bad.py"), "wall-clock")
    assert len(findings) == 3  # time.time, datetime.now, bare perf_counter
    assert any("time.time" in f.message for f in findings)
    assert any("time.perf_counter" in f.message for f in findings)


def test_wall_clock_timing_marker_exempts_function():
    assert only(scan("wall_clock_good.py"), "wall-clock") == []


def test_wall_clock_benchmarks_exempt():
    assert only(scan("wall_clock_bad.py", BENCH_REL), "wall-clock") == []


def test_urandom_flagged_everywhere():
    for rel in (ENGINE_REL, RUNTIME_REL, BENCH_REL):
        assert len(only(scan("urandom_bad.py", rel), "urandom")) == 1
    assert only(scan("urandom_good.py"), "urandom") == []


def test_set_order_flags_set_iteration():
    findings = only(scan("set_order_bad.py"), "set-order")
    assert len(findings) == 2  # for-loop over SetComp, compr. over set()


def test_set_order_allows_sorted_and_fromkeys():
    assert only(scan("set_order_good.py"), "set-order") == []


# -- seam lint ---------------------------------------------------------


def test_env_read_flags_reads():
    findings = only(scan("env_read_bad.py"), "env-read")
    assert len(findings) == 2  # os.environ.get + os.getenv


def test_env_read_allows_writes():
    assert only(scan("env_read_good.py"), "env-read") == []


def test_seam_literal_flags_undeclared_names():
    findings = only(scan("seam_literal_bad.py"), "seam-literal")
    assert len(findings) == 1
    assert "REPRO_NOT_A_REGISTERED_SEAM" in findings[0].message


def test_seam_literal_allows_declared_and_docstrings():
    assert only(scan("seam_literal_good.py"), "seam-literal") == []


def test_readme_check_reports_missing_seams():
    findings = list(check_readme(["REPRO_X", "REPRO_Y"], "only REPRO_X here", "README.md"))
    assert [f.rule for f in findings] == ["seam-doc"]
    assert "REPRO_Y" in findings[0].message


# -- lifecycle lint ----------------------------------------------------


def test_lifecycle_flags_unguarded_construction():
    findings = only(scan("lifecycle_bad.py"), "lifecycle")
    assert len(findings) == 2
    labels = {f.message.split(" in ")[0] for f in findings}
    assert labels == {"ProcessPoolExecutor", "SharedMemory(create=True)"}


def test_lifecycle_accepts_every_guard_variant():
    assert only(scan("lifecycle_good.py"), "lifecycle") == []


# -- waivers -----------------------------------------------------------


def test_waiver_hygiene_findings():
    src = load("waiver_bad.py")
    hygiene = src.waiver_findings()
    messages = " / ".join(f.message for f in hygiene)
    assert len(hygiene) == 3
    assert "reason" in messages
    assert "names no rule" in messages
    assert "no-such-rule" in messages
    # The reason-less waiver does NOT suppress the finding it targets.
    assert len(only(check_source(src), "urandom")) == 1


def test_complete_waivers_suppress_same_line_and_line_above():
    src = load("waiver_good.py")
    assert src.waiver_findings() == []
    unwaived = [
        f
        for f in check_source(src)
        if not src.is_waived(f.rule, f.line)
    ]
    assert unwaived == []


# -- layering ----------------------------------------------------------

MINI_CONTRACT = {
    "core": frozenset(),
    "simulator": frozenset({"core"}),
    "cli": frozenset({"core", "simulator"}),
}


def test_layering_clean_tree_with_lazy_imports():
    findings = list(
        check_layering(FIXTURES / "layering_good", MINI_CONTRACT, "fixtures")
    )
    assert findings == []


def test_layering_back_edge_rendered():
    findings = list(
        check_layering(FIXTURES / "layering_bad", MINI_CONTRACT, "fixtures")
    )
    assert len(findings) == 1
    assert "back-edge core -> cli" in findings[0].message
    assert findings[0].path == "fixtures/core/model.py"


def test_layering_cycle_rendered():
    contract = {
        "core": frozenset({"simulator"}),
        "simulator": frozenset({"core"}),
    }
    findings = list(
        check_layering(FIXTURES / "layering_cycle", contract, "fixtures")
    )
    assert len(findings) == 1
    assert "import cycle" in findings[0].message
    assert "core -> simulator -> core" in findings[0].message


def test_layer_contract_covers_real_units():
    package = find_repo_root() / "src" / "repro"
    units = {
        path.stem if path.suffix == ".py" else path.name
        for path in package.iterdir()
        if path.name != "__pycache__"
    }
    assert units <= set(LAYER_CONTRACT)
    assert set(ENGINE_UNITS) <= set(LAYER_CONTRACT)


# -- seam registry accessors -------------------------------------------


def test_enum_returns_default_when_unset(monkeypatch):
    monkeypatch.delenv("REPRO_FAST_BACKEND", raising=False)
    assert seams.enum("REPRO_FAST_BACKEND") == "auto"


def test_enum_rejects_unknown_value_naming_the_seam(monkeypatch):
    monkeypatch.setenv("REPRO_FAST_BACKEND", "carrier-pigeon")
    with pytest.raises(ValueError, match="REPRO_FAST_BACKEND"):
        seams.enum("REPRO_FAST_BACKEND")


def test_enum_override_wins_over_environment(monkeypatch):
    monkeypatch.setenv("REPRO_FAST_BACKEND", "carrier-pigeon")
    assert seams.enum("REPRO_FAST_BACKEND", override="python") == "python"
    with pytest.raises(ValueError, match="REPRO_FAST_BACKEND"):
        seams.enum("REPRO_FAST_BACKEND", override="NUMPY")
    monkeypatch.setenv("REPRO_FAST_BACKEND", "")
    assert seams.enum("REPRO_FAST_BACKEND") == "auto"


def test_flag_semantics(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
    assert seams.flag("REPRO_BENCH_FULL") is False
    monkeypatch.setenv("REPRO_BENCH_FULL", "1")
    assert seams.flag("REPRO_BENCH_FULL") is True
    monkeypatch.setenv("REPRO_BENCH_FULL", "")
    assert seams.flag("REPRO_BENCH_FULL") is False


def test_integer_minimum_and_unset(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS_BUDGET", raising=False)
    assert seams.integer("REPRO_CHAOS_BUDGET") is None
    monkeypatch.setenv("REPRO_CHAOS_BUDGET", "6")
    assert seams.integer("REPRO_CHAOS_BUDGET") == 6
    monkeypatch.setenv("REPRO_CHAOS_BUDGET", "0")
    with pytest.raises(ValueError, match="REPRO_CHAOS_BUDGET"):
        seams.integer("REPRO_CHAOS_BUDGET")
    monkeypatch.setenv("REPRO_CHAOS_BUDGET", "many")
    with pytest.raises(ValueError, match="REPRO_CHAOS_BUDGET"):
        seams.integer("REPRO_CHAOS_BUDGET")


def test_undeclared_seam_rejected():
    with pytest.raises(KeyError, match="not a declared seam"):
        seams.get("REPRO_NOPE")


def test_catalog_is_complete():
    names = [seam.name for seam in seams.catalog()]
    assert len(names) == len(set(names)) == 10
    assert all(name.startswith("REPRO_") for name in names)


# -- the repo's own gate -----------------------------------------------


def test_repo_is_clean():
    findings = run_checks(find_repo_root())
    assert findings == [], "\n" + render_report(findings)


def test_check_cli_exit_codes(capsys):
    assert check_main([]) == 0
    assert "clean" in capsys.readouterr().out
    assert check_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out
    assert check_main(["--rule", "no-such-rule"]) == 2


def test_check_wired_into_repro_cli(capsys):
    assert cli_main(["check", "--rule", "seam-doc"]) == 0
    capsys.readouterr()
