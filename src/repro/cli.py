"""Command-line interface: run the paper's experiments from a shell.

Examples
--------
::

    python -m repro bootstrap --size 1024 --seed 7
    python -m repro figure3 --exponents 10 12 --workers 4
    python -m repro figure4 --exponents 10
    python -m repro sweep --sizes 256 1024 --drops 0.0 0.2 --replicas 3 --workers 4
    python -m repro sweep --sizes 512 --schedule churn:rate=0.01
    python -m repro scenarios list
    python -m repro scenarios run figure3 --workers 4
    python -m repro chaos list
    python -m repro chaos run chaos_partition_heal --smoke
    python -m repro churn --size 512 --rate 0.01
    python -m repro aggregate --size 256
    python -m repro broadcast --size 1024 --fanout 3

Every subcommand prints the same artefacts the benchmark harness
produces (ASCII figures / tables), so quick parameter exploration does
not require pytest.  Sweep-style commands (``figure3``, ``figure4``,
``sweep``, ``scenarios run``) accept ``--workers N`` to shard their
independent runs across a process pool; results are identical for any
worker count.  ``sweep`` and ``scenarios run`` execute through the
declarative scenario layer.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .analysis import Series
    from .runtime import ScheduleSpec
    from .scenarios import ScenarioSpec
    from .simulator import NetworkModel

__all__ = ["main"]

# Each handler imports the layers it calls, so a subcommand loads
# only those: ``python -X importtime -m repro <command>`` lists what
# one loads, and tests/test_import_budget.py pins it.


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1, help="master seed")
    parser.add_argument(
        "--drop",
        type=float,
        default=0.0,
        help="uniform message drop probability (paper Figure 4: 0.2)",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=60, help="cycle budget"
    )


def _add_engine(parser: argparse.ArgumentParser) -> None:
    from .simulator import ENGINE_KINDS

    # Added only to subcommands that route through build_simulation;
    # a silently ignored --engine would masquerade as a fast-engine
    # run (same convention as the sweep parser's missing --drop).
    parser.add_argument(
        "--engine",
        choices=ENGINE_KINDS,
        default="reference",
        help=(
            "cycle-engine implementation; 'fast' is the array-backed "
            "kernel (bit-identical trajectories, faster), "
            "'vector' batches whole cycles in numpy (seeded-but-"
            "different stream, statistically equivalent, >=5x)"
        ),
    )


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "shard independent runs across N worker processes "
            "(1 = in-process; results are identical for any value)"
        ),
    )


def _network(args: argparse.Namespace) -> NetworkModel:
    from .simulator import NetworkModel

    return NetworkModel(drop_probability=args.drop)


def _print_run(
    size: int,
    label: str,
    *,
    converged: bool,
    cycles: float | None,
    messages: float,
    loss: float,
) -> None:
    """Per-run summary block shared by the bootstrap and figure
    commands."""
    from .analysis import render_kv

    print(
        render_kv(
            {
                "size": size,
                "converged": converged,
                "cycles": cycles,
                "messages/node/cycle": messages,
                "overall loss": loss,
            },
            title=f"bootstrap {label}",
        )
    )


def _run_one(size: int, args: argparse.Namespace) -> tuple[Series, Series]:
    from .analysis import Series
    from .simulator import ExperimentSpec, build_simulation

    sim = build_simulation(
        ExperimentSpec(
            size=size,
            seed=args.seed,
            network=_network(args),
            max_cycles=args.max_cycles,
            engine=args.engine,
        )
    )
    result = sim.run(args.max_cycles)
    label = f"N={size}"
    _print_run(
        size,
        label,
        converged=result.converged,
        cycles=result.cycles_to_converge,
        messages=result.messages_per_node_per_cycle(),
        loss=result.transport["overall_loss_fraction"],
    )
    return (
        Series.from_pairs(label, result.leaf_series()),
        Series.from_pairs(label, result.prefix_series()),
    )


def cmd_bootstrap(args: argparse.Namespace) -> int:
    """One bootstrap run with its convergence curves."""
    from .analysis import ascii_semilog

    leaf, prefix = _run_one(args.size, args)
    print(
        ascii_semilog(
            [leaf.nonzero(), prefix.nonzero()],
            title="missing-entry proportions (o = leaf, x = prefix)",
        )
    )
    return 0


def cmd_figure(args: argparse.Namespace, lossy: bool) -> int:
    """Regenerate Figure 3 (or Figure 4 when *lossy*).

    The per-size runs are independent, so they are dispatched through
    the sweep runner; ``--workers N`` shards them across processes.
    """
    from .analysis import Series, ascii_semilog
    from .runtime import RunSpec, SweepRunner
    from .simulator import ExperimentSpec

    if lossy and args.drop == 0.0:
        args.drop = 0.2
    specs = []
    for index, exponent in enumerate(args.exponents):
        size = 2**exponent
        spec = ExperimentSpec(
            size=size,
            seed=args.seed,
            network=_network(args),
            max_cycles=args.max_cycles,
            label=f"N={size}",
            engine=args.engine,
        )
        # One replica per size, seeded exactly as the sequential CLI
        # always was (the spec's own seed, no replica derivation).
        specs.append(RunSpec(experiment=spec, shard=index))
    leaf_curves: list[Series] = []
    prefix_curves: list[Series] = []
    for run in SweepRunner(workers=args.workers).run_columns(specs):
        label = f"N={run.size}"
        counters = run.transport_counters()
        node_cycles = run.cycles_run * run.population
        intended = counters["intended"]
        _print_run(
            run.size,
            label,
            converged=run.converged,
            cycles=run.cycles_to_converge,
            messages=counters["sent"] / node_cycles if node_cycles else 0.0,
            loss=1.0 - counters["delivered"] / intended if intended else 0.0,
        )
        leaf_curves.append(
            Series.from_pairs(label, run.leaf_series()).nonzero()
        )
        prefix_curves.append(
            Series.from_pairs(label, run.prefix_series()).nonzero()
        )
    name = "Figure 4" if lossy else "Figure 3"
    print(
        ascii_semilog(
            leaf_curves,
            title=f"{name} (top): proportion of missing leaf set entries",
        )
    )
    print(
        ascii_semilog(
            prefix_curves,
            title=f"{name} (bottom): proportion of missing prefix table "
            "entries",
        )
    )
    return 0


def _schedule_arg(text: str) -> ScheduleSpec:
    """argparse type hook for ``--schedule kind:key=val,...``.

    Re-raises parse failures as ``ArgumentTypeError`` so argparse
    prints the real message -- including the
    :data:`~repro.runtime.SCHEDULE_KINDS` listing on a bad kind --
    instead of a generic "invalid value".
    """
    from .runtime import ScheduleSpec

    try:
        return ScheduleSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a full experiment grid and print merged statistics.

    The grid travels through the scenario layer: an ad-hoc
    :class:`ScenarioSpec` executed by :func:`run_scenario` -- the same
    path the registry scenarios and the benchmarks use.
    """
    from .analysis import ascii_semilog, render_table
    from .runtime import SweepGrid
    from .scenarios import ScenarioSpec, convergence_rows, run_scenario

    grid = SweepGrid(
        sizes=tuple(args.sizes),
        drop_rates=tuple(args.drops),
        replicas=args.replicas,
        base_seed=args.seed,
        max_cycles=args.max_cycles,
        engine=args.engine,
        schedules=tuple(args.schedule or ()),
    )
    scenario = ScenarioSpec(
        name="sweep",
        title="ad-hoc CLI sweep",
        claim="",
        grid=grid,
        analyses=("convergence",),
    )
    result = run_scenario(scenario, workers=args.workers)
    aggregate = result.aggregate

    # The scenario layer's convergence rows plus the sweep-specific
    # loss column (cells in aggregate order, same as the rows).
    rows = [
        row + [f"{cell.overall_loss_fraction:.3f}"]
        for row, cell in zip(convergence_rows(aggregate), aggregate.cells, strict=True)
    ]
    print(
        render_table(
            [
                "cell",
                "converged",
                "mean cycles",
                "min",
                "max",
                "overall loss",
            ],
            rows,
            title=(
                f"sweep: {len(result.columns)} runs "
                f"({len(grid.sizes)} sizes x {len(grid.drop_rates)} drops "
                f"x {len(grid.schedule_axis)} schedule sets "
                f"x {grid.replicas} replicas), workers={args.workers}"
            ),
        )
    )
    throughput = result.throughput
    if throughput is not None:
        print(
            f"engine throughput per shard: mean {throughput.mean:.2f} "
            f"cycles/s (min {throughput.minimum:.2f}, "
            f"max {throughput.maximum:.2f})"
        )
    print(
        ascii_semilog(
            [c.nonzero() for c in aggregate.leaf_curves() if len(c.nonzero())],
            title="mean missing leaf-set entries per cell",
        )
    )
    return 0


def cmd_scenarios_list(args: argparse.Namespace) -> int:
    """Print the scenario catalogue."""
    from .analysis import render_table
    from .scenarios import all_scenarios

    rows = [
        [
            spec.name,
            len(spec.grid),
            spec.claim,
        ]
        for spec in all_scenarios()
    ]
    print(
        render_table(
            ["scenario", "runs", "paper claim"],
            rows,
            title="registered scenarios (repro scenarios run <name>)",
        )
    )
    return 0


def _resolve_scenario(args: argparse.Namespace) -> ScenarioSpec | None:
    """Registry lookup (or ``--spec-file`` load) with errors on stderr."""
    from .scenarios import ScenarioSpec, get_scenario

    spec_file = getattr(args, "spec_file", None)
    if spec_file is not None:
        if args.name is not None:
            print(
                "give either a registry name or --spec-file, not both",
                file=sys.stderr,
            )
            return None
        try:
            return ScenarioSpec.from_path(spec_file)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return None
    if args.name is None:
        print(
            "a registry name (see `scenarios list`) or --spec-file "
            "is required",
            file=sys.stderr,
        )
        return None
    try:
        return get_scenario(args.name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return None


def cmd_scenarios_show(args: argparse.Namespace) -> int:
    """Dump one scenario's declarative JSON form."""
    spec = _resolve_scenario(args)
    if spec is None:
        return 2
    print(spec.to_json(indent=2))
    return 0


def cmd_scenarios_run(args: argparse.Namespace) -> int:
    """Execute one scenario (registry or spec file), print its report."""
    from .runtime import CheckpointError
    from .scenarios import render_scenario_report, run_scenario

    spec = _resolve_scenario(args)
    if spec is None:
        return 2
    if args.resume and args.checkpoint_dir is None:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.engine is not None:
        # Respect the axis form: a grid that sweeps engines is pinned
        # to the single requested engine, a single-engine grid is
        # simply switched.
        if spec.grid.engines is not None:
            spec = spec.with_grid(engines=(args.engine,))
        else:
            spec = spec.with_grid(engine=args.engine)
    try:
        result = run_scenario(
            spec,
            workers=args.workers,
            smoke=args.smoke,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
    except CheckpointError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.checkpoint_dir is not None:
        # result.spec is the grid actually run (--smoke rescales it).
        total = len({shard.cell for shard in result.spec.grid.expand()})
        print(
            f"checkpoint: {result.resumed_cells}/{total} cells restored "
            f"from {args.checkpoint_dir}, "
            f"{total - result.resumed_cells} computed"
        )
    if args.aggregate_out is not None:
        with open(args.aggregate_out, "w", encoding="utf-8") as stream:
            stream.write(
                json.dumps(result.aggregate.to_dict(), sort_keys=True)
            )
        print(f"aggregate written to {args.aggregate_out}")
    print(render_scenario_report(result))
    return 0


def cmd_chaos_list(args: argparse.Namespace) -> int:
    """Print the chaos scenario catalogue."""
    from .analysis import render_table
    from .scenarios import all_chaos_scenarios

    rows = [
        [spec.name, spec.size, len(spec.schedule), spec.title]
        for spec in all_chaos_scenarios()
    ]
    print(
        render_table(
            ["scenario", "peers", "events", "what happens"],
            rows,
            title="registered chaos scenarios (repro chaos run <name>)",
        )
    )
    return 0


def cmd_chaos_show(args: argparse.Namespace) -> int:
    """Dump one chaos scenario's declarative JSON form."""
    from .scenarios import get_chaos_scenario

    try:
        spec = get_chaos_scenario(args.name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(spec.to_json(indent=2))
    return 0


def cmd_chaos_run(args: argparse.Namespace) -> int:
    """Execute one chaos scenario on the virtual clock.

    Exit code 0 means the cluster re-converged to perfect tables
    within the budget after the fault timeline completed; 1 means the
    budget ran out first (the convergence-under-faults gate, usable
    straight from CI).
    """
    from .analysis import render_kv
    from .scenarios import run_chaos_scenario

    try:
        report = run_chaos_scenario(
            args.name, seed=args.seed, smoke=args.smoke
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(
        render_kv(
            {
                "scenario": report.name,
                "seed": report.seed,
                "peers": report.size,
                "re-converged": report.converged,
                "faults done at (virtual s)": report.faults_done_at,
                "time to functional (virtual s)": report.time_to_functional,
                "missing leaf fraction": report.final_leaf_fraction,
                "missing prefix fraction": report.final_prefix_fraction,
                "crashed peers": report.crashed_peers,
            },
            title="chaos run",
        )
    )
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(report.to_dict(), sort_keys=True))
        print(f"report written to {args.json_out}")
    return 0 if report.converged else 1


def cmd_churn(args: argparse.Namespace) -> int:
    """Steady-state table quality under continuous churn."""
    from .analysis import render_kv
    from .simulator import Churn, ExperimentSpec, build_simulation

    sim = build_simulation(
        ExperimentSpec(
            size=args.size,
            seed=args.seed,
            network=_network(args),
            engine=args.engine,
        )
    )
    result = sim.run(
        args.max_cycles,
        stop_when_perfect=False,
        schedules=[Churn(rate=args.rate)],
    )
    final = result.final_sample
    print(
        render_kv(
            {
                "size": args.size,
                "churn rate/cycle": args.rate,
                "cycles run": result.cycles_run,
                "missing leaf fraction": final.leaf_fraction,
                "missing prefix fraction": final.prefix_fraction,
            },
            title="steady-state quality under churn",
        )
    )
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    """Gossip push-pull averaging demo."""
    from .analysis import render_table
    from .components import AggregationExperiment

    values = [float(i) for i in range(args.size)]
    experiment = AggregationExperiment(values, seed=args.seed)
    trace = experiment.run(args.max_cycles, tolerance=1e-9)
    print(
        render_table(
            ["cycle", "variance"],
            [[c, v] for c, v in trace],
            title=(
                f"push-pull averaging, N={args.size} "
                f"(true mean {experiment.true_mean:g})"
            ),
        )
    )
    return 0


def cmd_broadcast(args: argparse.Namespace) -> int:
    """Probabilistic-broadcast (start signal) demo."""
    from .analysis import render_kv
    from .components import BroadcastConfig, GossipBroadcast

    broadcast = GossipBroadcast(
        args.size,
        BroadcastConfig(
            fanout=args.fanout,
            rounds_active=args.rounds_active,
            drop_probability=args.drop,
        ),
        seed=args.seed,
    )
    result = broadcast.broadcast()
    print(
        render_kv(
            {
                "size": args.size,
                "fanout": args.fanout,
                "reliability": result.reliability,
                "rounds": result.rounds,
                "messages": result.messages,
            },
            title="probabilistic broadcast (start-signal channel)",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    from .simulator import ENGINE_KINDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'The Bootstrapping Service' (ICDCS 2006): "
            "experiment runner"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bootstrap", help="one bootstrap run, with curves")
    p.add_argument("--size", type=int, default=1024)
    _add_common(p)
    _add_engine(p)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("figure3", help="regenerate Figure 3")
    p.add_argument(
        "--exponents", type=int, nargs="+", default=[10, 12],
        help="network sizes as powers of two",
    )
    _add_common(p)
    _add_engine(p)
    _add_workers(p)
    p.set_defaults(func=lambda a: cmd_figure(a, lossy=False))

    p = sub.add_parser("figure4", help="regenerate Figure 4 (20%% drop)")
    p.add_argument("--exponents", type=int, nargs="+", default=[10])
    _add_common(p)
    _add_engine(p)
    _add_workers(p)
    p.set_defaults(func=lambda a: cmd_figure(a, lossy=True))

    p = sub.add_parser(
        "sweep",
        help="run a sizes x drops x replicas grid, merged statistics",
    )
    p.add_argument(
        "--sizes", type=int, nargs="+", default=[256, 1024],
        help="network sizes to sweep",
    )
    p.add_argument(
        "--drops", type=float, nargs="+", default=[0.0],
        help="message drop probabilities to sweep",
    )
    p.add_argument(
        "--replicas", type=int, default=3,
        help="independent repeats per grid cell",
    )
    # No --drop here: the sweep's loss axis is the --drops grid, and a
    # silently ignored --drop would masquerade as a lossy run.
    p.add_argument("--seed", type=int, default=1, help="master seed")
    p.add_argument(
        "--max-cycles", type=int, default=60, help="cycle budget"
    )
    p.add_argument(
        "--schedule",
        type=_schedule_arg,
        action="append",
        metavar="KIND:KEY=VAL,...",
        help=(
            "failure schedule applied to every run, e.g. "
            "churn:rate=0.01 or catastrophe:at_cycle=5,fraction=0.5 "
            "(repeatable)"
        ),
    )
    _add_engine(p)
    _add_workers(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "scenarios",
        help="list, inspect, and run the declarative scenario registry",
    )
    scenario_sub = p.add_subparsers(dest="scenarios_command", required=True)

    sp = scenario_sub.add_parser("list", help="print the scenario catalogue")
    sp.set_defaults(func=cmd_scenarios_list)

    sp = scenario_sub.add_parser(
        "show", help="dump one scenario's declarative JSON"
    )
    sp.add_argument("name", help="registry name (see `scenarios list`)")
    sp.set_defaults(func=cmd_scenarios_show)

    sp = scenario_sub.add_parser(
        "run", help="execute one scenario and print its report"
    )
    sp.add_argument(
        "name",
        nargs="?",
        default=None,
        help="registry name (see `scenarios list`)",
    )
    sp.add_argument(
        "--spec-file",
        default=None,
        help=(
            "run a scenario from a JSON spec document "
            "(`scenarios show <name>` emits the format) instead of "
            "the registry"
        ),
    )
    sp.add_argument(
        "--smoke",
        action="store_true",
        help="run the seconds-scale smoke rescaling (axes preserved)",
    )
    sp.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "stream the sweep and journal each completed cell to this "
            "directory (kill-safe; see README: checkpointed sweeps)"
        ),
    )
    sp.add_argument(
        "--resume",
        action="store_true",
        help=(
            "restore journalled cells from --checkpoint-dir and "
            "re-dispatch only the missing shards"
        ),
    )
    sp.add_argument(
        "--aggregate-out",
        default=None,
        help=(
            "write the merged aggregate as canonical JSON to this "
            "file (byte-comparable across runs and worker counts)"
        ),
    )
    sp.add_argument(
        "--engine",
        choices=ENGINE_KINDS,
        default=None,
        help="pin every run to one cycle engine (overrides the grid)",
    )
    _add_workers(sp)
    sp.set_defaults(func=cmd_scenarios_run)

    p = sub.add_parser(
        "chaos",
        help=(
            "run the live asyncio stack under deterministic fault "
            "injection (partitions, kills, flash crowds)"
        ),
    )
    chaos_sub = p.add_subparsers(dest="chaos_command", required=True)

    cp = chaos_sub.add_parser("list", help="print the chaos catalogue")
    cp.set_defaults(func=cmd_chaos_list)

    cp = chaos_sub.add_parser(
        "show", help="dump one chaos scenario's declarative JSON"
    )
    cp.add_argument("name", help="registry name (see `chaos list`)")
    cp.set_defaults(func=cmd_chaos_show)

    cp = chaos_sub.add_parser(
        "run",
        help=(
            "execute one chaos scenario; exit 0 iff the cluster "
            "re-converged within the budget"
        ),
    )
    cp.add_argument("name", help="registry name (see `chaos list`)")
    cp.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the scenario's seed (same seed => same run)",
    )
    cp.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the cluster to CI size (fault timeline preserved)",
    )
    cp.add_argument(
        "--json-out",
        default=None,
        help="also write the full run report as JSON to this file",
    )
    cp.set_defaults(func=cmd_chaos_run)

    p = sub.add_parser(
        "check",
        help=(
            "statically check determinism, seam, layering, and "
            "lifecycle invariants (see README: invariants)"
        ),
        add_help=False,
    )
    # The analyzer owns its own argparse surface (--rule, --list-rules,
    # --format, --root); main() forwards everything after `check`
    # before parsing, since REMAINDER cannot capture leading options.
    p.add_argument("check_args", nargs=argparse.REMAINDER)
    p.set_defaults(func=lambda a: _check(a.check_args))

    p = sub.add_parser("churn", help="steady-state quality under churn")
    p.add_argument("--size", type=int, default=512)
    p.add_argument("--rate", type=float, default=0.01)
    _add_common(p)
    _add_engine(p)
    p.set_defaults(func=cmd_churn)

    p = sub.add_parser("aggregate", help="gossip aggregation demo")
    p.add_argument("--size", type=int, default=256)
    _add_common(p)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("broadcast", help="probabilistic broadcast demo")
    p.add_argument("--size", type=int, default=1024)
    p.add_argument("--fanout", type=int, default=3)
    p.add_argument("--rounds-active", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=cmd_broadcast)

    return parser


def _check(arguments: list[str]) -> int:
    from .devtools import main as devtools_main

    return devtools_main(arguments)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments[:1] == ["check"]:
        return _check(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
