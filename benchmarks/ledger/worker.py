"""The fresh child that runs one workload.

``run.py`` starts one of these per workload (and one per set-up
probe), so ``peak_rss_mb`` is the workload's own high-water mark and
not the driver's.  The child reads nothing from its environment: every
input is an argument, and the program under test only ever sees the
specs the workload generates from ``--seed``.

Untraced run: ``FIXED_PASSES`` passes of fixed work, each on its own
derived seed, repeated in turn until ``--seconds`` of host time are
used.  A repeat is the same work on the same input and must reproduce
its outputs.  A pass's host time is the sum, over its timed units
(cycles, legs, the CLI child), of the fastest reading any repeat took
of that unit -- a busy neighbour on a shared host only ever slows a
unit down -- and a timing metric is the mean of those over the passes.
Simulated metrics come from the passes' outputs, so they do not depend
on how fast the host is.

Traced run: ``TRACE_PAIRS`` times, the same pass untraced and then
with a span around every call into a layer.  Each pair must produce
identical simulated outputs; the fastest traced pass against the
fastest untraced one is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

from harness import (
    FIXED_PASSES,
    TRACE_PAIRS,
    Context,
    PassOutcome,
    peak_rss_mb,
    quiet_seconds,
)
from spans import Tracer, self_times, summarize, write_jsonl


def make_workload(name: str, ctx: Context):
    if name in ("vector_static", "vector_churn"):
        from wl_vector import VectorWorkload

        return VectorWorkload(ctx, churn=name == "vector_churn")
    if name == "exact_pair":
        from wl_exact import ExactPairWorkload

        return ExactPairWorkload(ctx)
    if name == "sweep_cli_w2":
        from wl_sweep import SweepCliWorkload

        return SweepCliWorkload(ctx)
    if name == "live_chaos":
        from wl_live import LiveChaosWorkload

        return LiveChaosWorkload(ctx)
    raise ValueError(f"unknown workload {name!r}")


def _verdict(outcomes: list[PassOutcome], extra_checks: list[tuple[str, bool]]) -> dict:
    checks = [check for outcome in outcomes for check in outcome.checks] + extra_checks
    return {
        "attempted": sum(o.operations for o in outcomes),
        "failed": sum(o.failed_operations for o in outcomes),
        "checks": len(checks),
        "failed_checks": sorted({name for name, ok in checks if not ok}),
        "correct": all(ok for _, ok in checks),
    }


def _run_pass(workload, index: int, tracer: Tracer | None) -> PassOutcome:
    # A finished simulation is cyclic garbage.  Collected here, it is
    # neither collected inside a later pass's timed units nor counted
    # in ``peak_rss_mb``, which would otherwise grow with the number of
    # passes a run happens to fit.
    gc.collect()
    return workload.run_pass(index, tracer)


def run_untraced(workload, seconds: float) -> dict:
    outcomes: list[PassOutcome] = []
    start = time.perf_counter()
    while True:
        outcomes.append(_run_pass(workload, len(outcomes) % FIXED_PASSES, None))
        elapsed = time.perf_counter() - start
        # Never start a pass that is predicted to overrun --seconds.
        if len(outcomes) >= FIXED_PASSES and elapsed + elapsed / len(outcomes) > seconds:
            break
    # repeats[i]: every run of pass i, the same work on the same input.
    repeats = [outcomes[index::FIXED_PASSES] for index in range(FIXED_PASSES)]
    fixed = outcomes[:FIXED_PASSES]
    walls = [quiet_seconds(runs, 0) for runs in repeats]
    metrics = {
        "wall_s": statistics.fmean(walls),
        "cpu_s": statistics.fmean(quiet_seconds(runs, 1) for runs in repeats),
        "peak_rss_mb": peak_rss_mb(),
        "node_cycles_per_s": sum(o.node_cycles for o in fixed) / sum(walls),
        "cycles_to_converge": statistics.fmean(o.cycles_to_converge for o in fixed),
        "final_completeness": statistics.fmean(o.final_completeness for o in fixed),
        "msgs_per_node_cycle": (
            sum(o.messages for o in fixed) / sum(o.node_cycles for o in fixed)
        ),
    }
    reproduced = all(o.simulated == runs[0].simulated for runs in repeats for o in runs)
    return {
        **_verdict(outcomes, [("a repeated pass reproduces its outputs", reproduced)]),
        "passes": len(outcomes),
        "metrics": metrics,
        "timings": {"pass_wall_s": summarize([o.wall for o in outcomes])},
        "simulated": [o.simulated for o in fixed],
    }


def run_traced(workload, spans_path: Path) -> dict:
    tracer = Tracer(workload.name)
    untraced: list[PassOutcome] = []
    traced: list[PassOutcome] = []
    checks: list[tuple[str, bool]] = []
    for index in range(getattr(workload, "trace_pairs", TRACE_PAIRS)):
        untraced.append(_run_pass(workload, index, None))
        traced.append(_run_pass(workload, index, tracer))
        checks.append(
            (
                "traced outputs equal untraced outputs",
                traced[-1].simulated == untraced[-1].simulated,
            )
        )
    metrics = workload.layer_metrics(untraced, traced, tracer)
    for layer, seconds in self_times(tracer.spans).items():
        metrics[f"{layer}.self_s"] = seconds / len(traced)
    # Fastest pass against fastest pass: a busy neighbour only ever
    # slows a pass down, and the pairs run the same seeds.  A workload
    # whose traced pass is a different execution from its untraced one
    # (the CLI child) measures the overhead itself.
    plain = min(o.wall for o in untraced)
    metrics.setdefault("trace_overhead_share", (min(o.wall for o in traced) - plain) / plain)
    write_jsonl(tracer.spans, spans_path)
    return {
        **_verdict(untraced + traced, checks),
        "passes": len(untraced) + len(traced),
        "metrics": metrics,
        "spans": len(tracer.spans),
        "spans_path": str(spans_path),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    ctx = Context(seed=args.seed, smoke=args.smoke, scratch=args.scratch)
    workload = make_workload(args.workload, ctx)
    workload.setup()
    if args.setup_only:
        return 0
    # An operation that raises ends the run with a traceback and a
    # non-zero exit: no result is written for a run that broke.
    if args.trace:
        result = run_traced(workload, args.scratch / f"spans-{args.workload}.jsonl")
    else:
        result = run_untraced(workload, args.seconds)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
