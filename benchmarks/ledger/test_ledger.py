"""Span bookkeeping, the percentile rule, compare verdicts, and the
shape of the ledger document (on the seconds-scale ``--smoke`` sizing;
smoke numbers are never written to BENCHMARK.json).

Run with ``python -m pytest benchmarks/ledger``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import harness
import spans
from spans import Span, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def span(id, name, start, end, parent=None):
    return Span(id=id, name=name, start=start, end=end, parent=parent, workload="w")


# -- self time ---------------------------------------------------------


def test_self_time_subtracts_nested_children():
    recorded = [
        span(0, "simulator.run_cycle", 0.0, 10.0),
        span(1, "core.create_message", 1.0, 4.0, parent=0),
        span(2, "sampling.sample", 2.0, 3.0, parent=1),
    ]
    assert spans.self_times(recorded) == {"simulator": 7.0, "core": 2.0, "sampling": 1.0}


def test_self_time_subtracts_sibling_children_once():
    recorded = [
        span(0, "simulator.run_cycle", 0.0, 10.0),
        span(1, "core.absorb", 1.0, 3.0, parent=0),
        span(2, "core.absorb", 5.0, 9.0, parent=0),
    ]
    assert spans.self_times(recorded) == {"simulator": 4.0, "core": 6.0}


def test_self_time_clips_overlapping_and_overhanging_children():
    recorded = [
        span(0, "net.phase.converge", 0.0, 10.0),
        span(1, "net.cluster.measure", 2.0, 6.0, parent=0),
        span(2, "net.cluster.measure", 4.0, 12.0, parent=0),
    ]
    # The parent keeps only [0, 2): the children cover [2, 10].
    assert spans.self_times(recorded)["net"] == pytest.approx(2.0 + 4.0 + 8.0)
    only_parent = spans.self_times(recorded[:1])
    assert only_parent == {"net": 10.0}


def test_same_layer_nesting_sums_to_the_outer_span():
    recorded = [
        span(0, "net.leg.clean", 0.0, 5.0),
        span(1, "net.phase.warmup", 1.0, 2.0, parent=0),
    ]
    assert spans.self_times(recorded) == {"net": 5.0}


def test_tracer_records_parents_and_restores_patched_callables():
    class Layer:
        def call(self, value):
            return value + 1

    tracer = Tracer("w")
    original = Layer.call
    with tracer.span("outer.body"), tracer.patched([(Layer, "call", "inner.call")]):
        assert Layer().call(1) == 2
    assert Layer.call is original
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, outer.id)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracer.durations("inner.call") == [inner.duration]


def test_patched_restores_after_an_exception():
    class Layer:
        def call(self):
            raise ValueError("boom")

    original = Layer.call
    tracer = Tracer("w")
    with pytest.raises(ValueError), tracer.patched([(Layer, "call", "layer.call")]):
        Layer().call()
    assert Layer.call is original
    assert tracer.spans[0].end >= tracer.spans[0].start


# -- percentile rule ---------------------------------------------------


@pytest.mark.parametrize(
    ("count", "expected"),
    [(1, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)  # fmt: skip
def test_highest_percentile_needs_ten_samples_beyond(count, expected):
    assert spans.highest_percentile(count) == expected


def test_summarize_reports_median_high_percentile_and_count():
    summary = spans.summarize([float(i) for i in range(1, 101)])
    assert summary == {"n": 100, "p50": 50.5, "phi": pytest.approx(90.1), "phi_percent": 90.0}
    assert spans.percentile([3.0], 99.0) == 3.0
    with pytest.raises(ValueError):
        spans.percentile([], 50.0)


# -- JSONL -------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    tracer = Tracer("exact_pair")
    with tracer.span("simulator.run_cycle"), tracer.span("core.absorb"):
        pass
    path = tmp_path / "spans.jsonl"
    spans.write_jsonl(tracer.spans, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert set(json.loads(lines[0])) == {"id", "name", "start", "end", "parent", "workload"}
    assert spans.read_jsonl(path) == tracer.spans


# -- convergence arithmetic --------------------------------------------


def test_crossing_cycle_interpolates_log_linearly():
    assert harness.crossing_cycle([1, 2, 3], [0.1, 0.01, 0.001], 0.01) == pytest.approx(2.0)
    assert harness.crossing_cycle([1, 2], [0.1, 0.001], 0.01) == pytest.approx(1.5)
    # A zero sample falls back to linear interpolation.
    assert harness.crossing_cycle([1, 2], [0.5, 0.0], 0.25) == pytest.approx(1.5)
    assert harness.crossing_cycle([1, 2], [0.5, 0.4], 0.01) is None


def test_derive_is_stable_and_label_sensitive():
    assert harness.derive(1, "a", 0) == harness.derive(1, "a", 0)
    assert harness.derive(1, "a", 0) != harness.derive(1, "a", 1)
    assert harness.derive(1, "a", 0) != harness.derive(2, "a", 0)
    assert 0 <= harness.derive(7, "x") < 2**62


# -- timed units -------------------------------------------------------


def test_stopwatch_as_a_schedule_splits_the_block_into_one_unit_per_cycle():
    clock = harness.Stopwatch()
    with clock.timed():
        for cycle in range(4):  # what a simulator's run() does with its schedules
            clock.apply(None, cycle)
    with clock.timed():
        pass
    assert len(clock.units) == 5
    assert all(wall >= 0.0 and cpu >= 0.0 for wall, cpu in clock.units)
    assert clock.wall == pytest.approx(sum(wall for wall, _ in clock.units))


def _outcome(units):
    return harness.PassOutcome(
        units=units, node_cycles=1.0, messages=0.0, cycles_to_converge=1.0,
        final_completeness=1.0, operations=1, failed_operations=0, checks=[], simulated={},
    )  # fmt: skip


def test_quiet_seconds_sums_the_fastest_reading_of_each_unit():
    repeats = [
        _outcome([(1.0, 0.9), (5.0, 2.0)]),  # second unit disturbed
        _outcome([(3.0, 1.5), (2.0, 1.9)]),  # first unit disturbed
    ]
    assert harness.quiet_seconds(repeats, 0) == pytest.approx(3.0)
    assert harness.quiet_seconds(repeats, 1) == pytest.approx(2.8)
    assert repeats[0].wall == pytest.approx(6.0) and repeats[0].cpu == pytest.approx(2.9)
    with pytest.raises(ValueError):  # repeats of one pass have the same units
        harness.quiet_seconds([repeats[0], _outcome([(1.0, 1.0)])], 0)


# -- compare -----------------------------------------------------------


def _document(wall, cycles=6.0, seed=1, sha="abc"):
    metrics = {
        "setup_s": 0.3, "wall_s": wall, "cpu_s": wall, "peak_rss_mb": 80.0,
        "node_cycles_per_s": 1000.0 / wall, "cycles_to_converge": cycles,
        "final_completeness": 1.0, "msgs_per_node_cycle": 2.0,
    }  # fmt: skip
    return {
        "seed": seed, "seconds": 12.0, "smoke": False,
        "workloads": {
            "vector_static": {
                "end_to_end": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
                "failed": 0, "simulated_sha256": sha,
            }
        },
    }  # fmt: skip


#: A fixed miniature of BENCHMARK.json, so these tests pin compare's
#: rules and not whatever bounds the real file currently carries.
_BENCHMARK = {
    "workloads": [{"name": "vector_static"}],
    "end_to_end": [
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "better": "lower", "bound": 0.10},
        {"name": "cpu_s", "better": "lower", "bound": 0.10},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.10},
        {"name": "node_cycles_per_s", "better": "higher", "bound": 0.10},
        {"name": "cycles_to_converge", "better": "lower", "bound": 0.05},
        {"name": "final_completeness", "better": "higher", "bound": 0.01},
        {"name": "msgs_per_node_cycle", "better": "lower", "bound": 0.05},
    ],
    "per_layer": [],
}


def _verdicts(base, change):
    rows = compare.compare(base, change, _BENCHMARK)
    return {row["metric"]: row["verdict"] for row in rows}


def test_compare_ok_within_bound_and_regressed_beyond_it():
    base = [_document(w) for w in (4.0, 4.02, 4.04, 4.06)]
    assert set(_verdicts(base, [_document(w) for w in (4.1, 4.12, 4.14, 4.16)]).values()) == {"ok"}
    verdicts = _verdicts(base, [_document(w) for w in (4.8, 4.82, 4.84, 4.86)])
    assert verdicts["wall_s"] == verdicts["node_cycles_per_s"] == "regressed"
    assert verdicts["peak_rss_mb"] == "ok"


def test_compare_unresolved_when_spread_exceeds_bound():
    base = [_document(w) for w in (4.0, 4.5, 5.0, 5.5)]
    change = [_document(w) for w in (4.2, 4.7, 5.2, 5.7)]
    assert _verdicts(base, change)["wall_s"] == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    faster = [_document(w) for w in (2.0, 2.5, 3.0, 3.5)]
    assert _verdicts(base, faster)["wall_s"] == "ok"


def test_compare_demands_exact_simulated_metrics_for_one_seed():
    verdicts = _verdicts([_document(4.0)], [_document(4.0, cycles=6.01, sha="def")])
    assert verdicts["cycles_to_converge"] == "differs"
    assert verdicts["simulated_sha256"] == "differs"
    # Different seeds owe no equality; the bound applies instead.
    verdicts = _verdicts([_document(4.0)], [_document(4.0, cycles=6.01, seed=2)])
    assert verdicts["cycles_to_converge"] == "ok"
    assert "simulated_sha256" not in verdicts


def test_compare_exit_status(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    mini = tmp_path / "benchmark.json"
    a.write_text(json.dumps(_document(4.0)))
    b.write_text(json.dumps(_document(5.0)))
    mini.write_text(json.dumps(_BENCHMARK))
    assert compare.main([str(a), str(a), "--benchmark", str(mini)]) == 0
    assert compare.main([str(a), str(b), "--benchmark", str(mini)]) == 1


# -- the ledger document, on the smoke sizing --------------------------


def _run(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, check=False, cwd=ROOT,
    )  # fmt: skip


def test_contract_line_lists_every_declared_metric():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, declared in ((0, benchmark["end_to_end"]), (1, benchmark["per_layer"])):
        done = _run("--workload", "vector_churn", "--seed", "5", "--seconds", "1",
                    "--trace", str(trace), "--smoke")  # fmt: skip
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert list(last["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        if trace == 0:
            assert all(entry["value"] != 0 for entry in last["metrics"].values())
        else:
            assert last["metrics"]["engine_vector.self_s"]["value"] > 0
            assert last["metrics"]["net.self_s"]["value"] == 0


def test_ledger_document_schema_and_determinism(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        done = _run("--seed", "2", "--seconds", "1", "--smoke", "--traced", "--out", str(out),
                    "--keep-spans", str(tmp_path / "spans"))  # fmt: skip
        assert done.returncode == 0, done.stdout + done.stderr
        outs.append(out)
    document = json.loads(outs[0].read_text())
    assert document["schema"] == 1 and document["smoke"] is True
    assert set(document["machine"]) == {"nproc", "python", "numpy", "platform"}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(document["workloads"]) == sorted(w["name"] for w in benchmark["workloads"])
    layers_seen = set()
    for name, entry in document["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, (name, entry["failed_checks"])
        assert set(entry["end_to_end"]) == {m["name"] for m in benchmark["end_to_end"]}
        assert -0.5 < entry["per_layer"]["trace_overhead_share"]["value"] < 1.0
        layers_seen |= {m.split(".")[0] for m in entry["per_layer"] if m.endswith(".self_s")}
        recorded = spans.read_jsonl(tmp_path / "spans" / f"spans-{name}.jsonl")
        assert recorded and all(s.workload == name for s in recorded)
    assert layers_seen == {
        "cli", "simulator", "core", "sampling", "engine_fast", "engine_vector",
        "runtime", "scenarios", "net",
    }  # fmt: skip
    # Two runs of one commit and one seed: every simulated number and
    # every count repeats exactly; no scratch directory is left behind.
    assert compare.main([str(outs[0]), str(outs[1]), "--benchmark",
                         str(ROOT / "BENCHMARK.json")]) in (0, 1)  # fmt: skip
    rows = compare.compare(
        [json.loads(outs[0].read_text())], [json.loads(outs[1].read_text())], benchmark
    )
    assert not [row for row in rows if row["verdict"] == "differs"]
    assert not (ROOT / ".bench_tmp").exists()
