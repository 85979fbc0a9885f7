"""The perf ledger's one command.

Benchmark contract (what the PR driver runs)::

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

Ledger mode (what a later PR runs to drop ``BENCH_<pr>.json`` at the
repo root)::

    python3 benchmarks/ledger/run.py --seed N --traced --out BENCH_12.json

runs every workload, one after the other, from this one driver
process.  Each workload -- and each set-up probe -- runs in a fresh
child whose environment is written here from scratch (nothing is read
from this process's environment), so memory is per workload and at
most the workload's own two processes are busy at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Fresh children that only set the workload up, half of them before
#: the measuring child and half after it; ``setup_s`` is the wall of
#: the fastest (the one a busy neighbour disturbed least).
SETUP_PROBES = 8
#: A child still running after this many seconds is killed.
CHILD_TIMEOUT = 170.0
SCHEMA = 1


def child_environment(scratch: Path) -> dict[str, str]:
    """The whole environment of every child, written, never inherited:
    single-threaded BLAS, fixed hash seed, no ``REPRO_*`` seam set, and
    temporary files kept inside the checkout."""
    return {
        "PATH": os.defpath,
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "TMPDIR": str(scratch),
        "HOME": str(scratch),
    }


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return json.load(stream)


def run_child(args: list[str], scratch: Path) -> float:
    """Run one worker child to the end and return its wall seconds.

    The child leads its own process group, so the watchdog takes its
    pool workers down with it and nothing outlives this call.  The
    wait itself is a plain blocking ``waitpid``: ``wait(timeout=...)``
    polls in steps of up to 50 ms, which would quantise ``setup_s``.
    """
    command = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    child = subprocess.Popen(
        command,
        cwd=scratch,
        env=child_environment(scratch),
        stdin=subprocess.DEVNULL,
        stdout=sys.stderr,
        start_new_session=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT, os.killpg, (child.pid, signal.SIGKILL))
    watchdog.start()
    try:
        code = child.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
    wall = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"child exited {code}: {' '.join(args)}")
    return wall


def run_workload(
    name: str, *, seed: int, seconds: float, trace: bool, smoke: bool, scratch: Path
) -> dict:
    """One workload in a fresh child, between its set-up probes."""
    result_file = scratch / f"result-{name}-{int(trace)}.json"
    common = [
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--scratch", str(scratch),
        "--result", str(result_file),
    ]  # fmt: skip
    if smoke:
        common.append("--smoke")
    setup_only = [*common, "--setup-only"]
    probes = 0 if trace else SETUP_PROBES // 2
    setups = [run_child(setup_only, scratch) for _ in range(probes)]
    run_child([*common, "--trace", str(int(trace))], scratch)
    setups += [run_child(setup_only, scratch) for _ in range(probes)]
    result = json.loads(result_file.read_text(encoding="utf-8"))
    if setups:
        result["metrics"] = {"setup_s": min(setups), **result["metrics"]}
        result["timings"]["setup_s"] = setups
    return result


def shape_metrics(result: dict, declared: list[dict], *, fill: bool) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics.

    A per-layer metric reads 0 on a workload that does not exercise
    its layer (*fill*); an undeclared or missing name is a harness bug.
    """
    measured = result["metrics"]
    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    shaped = {}
    for metric in declared:
        if metric["name"] not in measured and not fill:
            raise RuntimeError(f"metric {metric['name']} was not measured")
        shaped[metric["name"]] = {
            "value": measured.get(metric["name"], 0.0),
            "unit": metric["unit"],
        }
    return shaped


def print_metrics(name: str, trace: bool, result: dict, shaped: dict) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(
        f"== {name}: {kind}; {result['passes']} passes, "
        f"{result['attempted']} operations attempted, {result['failed']} failed, "
        f"{result['checks']} output checks, "
        f"{'all correct' if result['correct'] else 'FAILED: ' + '; '.join(result['failed_checks'])}"
    )
    for metric, entry in shaped.items():
        if trace and metric not in result["metrics"]:
            continue
        print(f"  {metric:<44} {entry['value']:>16.6g} {entry['unit']}")
    for timing, summary in result.get("timings", {}).items():
        if isinstance(summary, dict):
            print(
                f"  [{timing}: n={summary['n']} p50={summary['p50']:.4g} "
                f"p{summary['phi_percent']:g}={summary['phi']:.4g}]"
            )


def machine() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
    }


def ledger_entry(untraced: dict, traced: dict | None) -> dict:
    """One workload's record in the ``--out`` document (from
    :func:`measure` results)."""
    simulated = json.dumps(untraced["simulated"], sort_keys=True)
    entry = {
        "end_to_end": untraced["shaped"],
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "correct": untraced["correct"],
        "failed_checks": untraced["failed_checks"],
        "passes": untraced["passes"],
        "timings": untraced["timings"],
        "simulated_sha256": hashlib.sha256(simulated.encode()).hexdigest(),
    }
    if traced is not None:
        # Only the layers the workload exercises; the zeros are filler
        # for the contract line.
        entry["per_layer"] = {
            name: value for name, value in traced["shaped"].items() if name in traced["metrics"]
        }
        entry["traced_correct"] = traced["correct"]
        entry["correct"] = entry["correct"] and traced["correct"]
    return entry


def main(argv: list[str] | None = None) -> int:
    benchmark = load_benchmark()
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, help="one workload (contract mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="host seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="ledger mode: add the traced run")
    parser.add_argument("--out", type=Path, help="ledger mode: write the ledger document here")
    parser.add_argument("--smoke", action="store_true", help="seconds-scale sizes (tests only)")
    parser.add_argument("--keep-spans", type=Path, help="copy the span JSONL files here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    seconds = float(benchmark["run_seconds"]) if args.seconds is None else args.seconds
    scratch = ROOT / ".bench_tmp" / f"ledger-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        if args.workload is not None:
            return _contract_mode(args, benchmark, seconds, scratch)
        return _ledger_mode(args, benchmark, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is still using its own scratch directory


def measure(args, benchmark: dict, name: str, trace: bool, seconds: float, scratch: Path) -> dict:
    """Run one workload, print its metrics, and return the child's
    result with the declared metrics under ``"shaped"``."""
    result = run_workload(
        name, seed=args.seed, seconds=seconds, trace=trace, smoke=args.smoke, scratch=scratch
    )
    declared = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    result["shaped"] = shape_metrics(result, declared, fill=trace)
    print_metrics(name, trace, result, result["shaped"])
    if trace and args.keep_spans is not None:
        args.keep_spans.mkdir(parents=True, exist_ok=True)
        shutil.copy(result["spans_path"], args.keep_spans)
    return result


def _contract_mode(args, benchmark: dict, seconds: float, scratch: Path) -> int:
    result = measure(args, benchmark, args.workload, bool(args.trace), seconds, scratch)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["shaped"],
            }
        )
    )
    return 0 if result["correct"] else 1


def _ledger_mode(args, benchmark: dict, seconds: float, scratch: Path) -> int:
    document = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "traced": args.traced,
        "machine": machine(),
        "workloads": {},
    }
    for name in (w["name"] for w in benchmark["workloads"]):
        untraced = measure(args, benchmark, name, False, seconds, scratch)
        traced = measure(args, benchmark, name, True, seconds, scratch) if args.traced else None
        document["workloads"][name] = ledger_entry(untraced, traced)
    if args.out is not None:
        args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"ledger written to {args.out}")
    return 0 if all(w["correct"] for w in document["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
