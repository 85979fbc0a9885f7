"""Compare two sets of ledger runs against BENCHMARK.json's bounds.

    python3 benchmarks/ledger/compare.py A.json B.json
    python3 benchmarks/ledger/compare.py A1.json,A2.json,A3.json B1.json,B2.json,B3.json

Each side is one ledger document written by ``run.py --out`` or a
comma-separated set of them (several runs of one commit).  For every
workload and end-to-end metric the change's median is compared with
the parent's:

``ok``
    no worse than the parent by more than the metric's bound;
``regressed``
    worse by more than the bound;
``unresolved``
    the run-to-run spread of either side is wider than the bound, so
    neither "unchanged" nor "regressed" can be claimed -- unless every
    run of the change reads better than every run of the parent;
``differs``
    a simulated metric or a count that must repeat exactly (same seed,
    same sizes) does not.

Exit status 1 on any ``regressed`` or ``differs``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: End-to-end metrics that are simulated, not host time: a pure
#: function of the seed, so two runs of one seed must agree exactly.
SIMULATED = ("cycles_to_converge", "final_completeness", "msgs_per_node_cycle")
#: Per-layer metrics in these units are simulated counts as well.
EXACT_UNITS = ("count", "node-cycles", "cycles", "fraction", "descriptors", "s_vs", "msgs/peer")
#: ``attempted`` is not here: it grows with the passes that fit into
#: ``--seconds``, which is a property of the host.
EXACT_FIELDS = ("failed", "simulated_sha256")


def load_set(argument: str) -> list[dict]:
    documents = []
    for name in argument.split(","):
        with open(name, encoding="utf-8") as stream:
            documents.append(json.load(stream))
    return documents


def spread(values: list[float]) -> float | None:
    """Interquartile distance over the median (range over the median
    for two or three runs; unknown for one)."""
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if middle == 0:
        return 0.0 if max(values) == min(values) else float("inf")
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)


def worse_by(base: float, change: float, better: str) -> float:
    """Relative change in the *worse* direction (negative = improved)."""
    if base == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def judge(base: list[float], change: list[float], better: str, bound: float):
    """``(verdict, worse_by, widest spread)`` for one host-time metric."""
    worse = worse_by(statistics.median(base), statistics.median(change), better)
    spreads = [s for s in (spread(base), spread(change)) if s is not None]
    widest = max(spreads) if spreads else None
    if widest is not None and widest > bound:
        if better == "lower":
            dominates = max(change) < min(base)
        else:
            dominates = min(change) > max(base)
        return ("ok" if dominates else "unresolved"), worse, widest
    return ("regressed" if worse > bound else "ok"), worse, widest


def comparable(base: list[dict], change: list[dict]) -> bool:
    """Exact equality is only owed between runs of the same inputs."""
    keys = {(d["seed"], d["seconds"], d["smoke"]) for d in base + change}
    return len(keys) == 1


def compare(base: list[dict], change: list[dict], benchmark: dict) -> list[dict]:
    exact = comparable(base, change)
    rows = []
    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    for workload in (w["name"] for w in benchmark["workloads"]):
        side_a = [d["workloads"][workload] for d in base if workload in d["workloads"]]
        side_b = [d["workloads"][workload] for d in change if workload in d["workloads"]]
        if not side_a or not side_b:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [w["end_to_end"][name]["value"] for w in side_a]
            b = [w["end_to_end"][name]["value"] for w in side_b]
            if exact and name in SIMULATED:
                same = len(set(a + b)) == 1
                rows.append(_row(workload, name, a, b, "ok" if same else "differs", 0.0, None, 0.0))
                continue
            verdict, worse, widest = judge(a, b, metric["better"], metric["bound"])
            rows.append(_row(workload, name, a, b, verdict, worse, widest, metric["bound"]))
        if not exact:
            continue
        for field in EXACT_FIELDS:
            values = {str(w[field]) for w in side_a + side_b}
            rows.append(
                {
                    "workload": workload,
                    "metric": field,
                    "verdict": "ok" if len(values) == 1 else "differs",
                    "base": side_a[0][field],
                    "change": side_b[0][field],
                }
            )
        for name, unit in units.items():
            if unit not in EXACT_UNITS:
                continue
            values = [
                w["per_layer"][name]["value"]
                for w in side_a + side_b
                if name in w.get("per_layer", {})
            ]
            if len(values) >= 2 and len(set(values)) != 1:
                rows.append(
                    {
                        "workload": workload,
                        "metric": name,
                        "verdict": "differs",
                        "base": values[0],
                        "change": values[-1],
                    }
                )
    return rows


def _row(workload, metric, a, b, verdict, worse, widest, bound) -> dict:
    return {
        "workload": workload,
        "metric": metric,
        "verdict": verdict,
        "base": statistics.median(a),
        "change": statistics.median(b),
        "worse_by": worse,
        "spread": widest,
        "bound": bound,
    }


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<22} {'base':>12} {'change':>12} "
        f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict"
    ]
    for row in rows:
        if "bound" not in row:
            lines.append(
                f"{row['workload']:<14} {row['metric']:<22} "
                f"{str(row['base'])[:12]:>12} {str(row['change'])[:12]:>12} "
                f"{'':>9} {'exact':>6} {'':>7}  {row['verdict']}"
            )
            continue
        spread_text = "" if row["spread"] is None else f"{row['spread'] * 100:.1f}%"
        bound_text = f"{row['bound'] * 100:.0f}%" if row["bound"] else "exact"
        lines.append(
            f"{row['workload']:<14} {row['metric']:<22} {row['base']:>12.6g} "
            f"{row['change']:>12.6g} {row['worse_by'] * 100:>8.1f}% {bound_text:>6} "
            f"{spread_text:>7}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="ledger document(s) of the parent, comma-separated")
    parser.add_argument("change", help="ledger document(s) of the change, comma-separated")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as stream:
        benchmark = json.load(stream)
    rows = compare(load_set(args.base), load_set(args.change), benchmark)
    print(render(rows))
    counts = {
        verdict: sum(1 for row in rows if row["verdict"] == verdict)
        for verdict in ("ok", "unresolved", "regressed", "differs")
    }
    print(", ".join(f"{count} {verdict}" for verdict, count in counts.items()))
    return 1 if counts["regressed"] or counts["differs"] else 0


if __name__ == "__main__":
    sys.exit(main())
