"""Command-line interface: reproduce figures and run ablations.

Usage::

    python -m repro figures              # all figures, bench scale
    python -m repro figures --figure fig4 --scale bench --seed 3
    python -m repro sweep-epsilon
    python -m repro solvers
    python -m repro shootout
    python -m repro scenario list
    python -m repro scenario run flash-crowd --seed 3
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

import numpy as np

from .experiments.configs import FIGURES
from .experiments.figures import run_figure
from .experiments.sweep import (
    epsilon_sweep,
    render_epsilon_sweep,
    render_solver_comparison,
    scheduler_shootout,
    solver_comparison,
)
from .metrics.report import render_table

__all__ = ["main"]


def _cmd_figures(args: argparse.Namespace) -> int:
    figures = [args.figure] if args.figure else sorted(FIGURES)
    failures = 0
    for figure in figures:
        result = run_figure(figure, scale=args.scale, seed=args.seed)
        print(f"=== {figure}: {FIGURES[figure]} ===")
        print(result.text)
        status = "OK" if result.shape_holds else "SHAPE MISMATCH"
        print(f"shape checks: {result.shape} -> {status}")
        print()
        if not result.shape_holds:
            failures += 1
    return 1 if failures else 0


def _cmd_sweep_epsilon(args: argparse.Namespace) -> int:
    rows = epsilon_sweep(
        epsilons=[10.0, 1.0, 0.1, 0.01, 0.001],
        rng=np.random.default_rng(args.seed),
    )
    print(render_epsilon_sweep(rows))
    return 0


def _cmd_solvers(args: argparse.Namespace) -> int:
    rows = solver_comparison(rng=np.random.default_rng(args.seed))
    print(render_solver_comparison(rows))
    return 0


def _cmd_strategic(args: argparse.Namespace) -> int:
    from .core.problem import random_problem
    from .core.strategic import manipulation_study

    rng = np.random.default_rng(args.seed)
    problem = random_problem(
        rng, n_requests=30, n_uploaders=3, max_candidates=3, capacity_range=(1, 2)
    )
    # Pick a peer at the competitive margin: unserved truthfully, but with
    # positive-value edges it could steal by overbidding.
    from .core.exact import solve_hungarian

    base = solve_hungarian(problem)
    cheater = problem.request(0).peer
    for r in range(problem.n_requests):
        values = problem.edge_values_of(r)
        if base.assignment[r] is None and len(values) and values.max() > 0:
            cheater = problem.request(r).peer
            break
    rows = manipulation_study(problem, cheater, [0.5, 1.0, 2.0, 4.0, 8.0])
    print(f"strategic peer {cheater} on {problem.describe()}")
    print(render_table(
        ["factor", "chunks won", "auction true utility", "true welfare", "VCG net utility"],
        [
            [r.factor, r.chunks_won, r.auction_true_utility,
             r.auction_welfare, r.vcg_net_utility]
            for r in rows
        ],
    ))
    return 0


def _cmd_shootout(args: argparse.Namespace) -> int:
    results = scheduler_shootout(seed=args.seed)
    headers = [
        "scheduler", "welfare/slot", "inter-ISP", "miss rate", "served",
        "fairness", "localization",
    ]
    rows = [
        [
            name,
            totals["welfare_mean_per_slot"],
            totals["inter_isp_fraction"],
            totals["miss_rate"],
            int(totals["served_total"]),
            totals["download_fairness"],
            totals["traffic_localization"],
        ]
        for name, totals in results.items()
    ]
    print(render_table(headers, rows))
    return 0


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    from .scenarios import build_scenario, scenario_names

    rows = []
    for name in scenario_names():
        spec = build_scenario(name, scale="bench")
        rows.append(
            [
                name,
                len(spec.events),
                "yes" if spec.churn else "no",
                spec.n_static_peers,
                spec.description,
            ]
        )
    print(render_table(
        ["scenario", "event specs", "churn", "base peers", "description"], rows
    ))
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    import dataclasses

    from .scenarios import ScenarioRunner, build_scenario, load_scenario

    if args.name.endswith((".yaml", ".yml", ".json")):
        spec = load_scenario(args.name)
        if args.scale is not None and args.scale != spec.scale:
            # Rescale only — population, horizon and warm-up stay the
            # spec file's own.
            spec = dataclasses.replace(spec, scale=args.scale)
            spec.validate()
    else:
        spec = build_scenario(args.name, scale=args.scale or "bench")
    if args.duration is not None:
        spec = spec.abridged(args.duration)
    result = ScenarioRunner(spec, seed=args.seed).run()
    report = result.render_report()
    print(report)
    if not args.no_save:
        out = args.output or pathlib.Path("results") / f"scenario_{spec.name}.txt"
        out = pathlib.Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report + "\n", encoding="utf-8")
        print(f"\nwrote {out}")
    return 0


def _cmd_scenario_import_trace(args: argparse.Namespace) -> int:
    from .scenarios import ScenarioRunner, dump_scenario, import_trace

    spec = import_trace(
        args.trace,
        name=args.name or "",
        scale=args.scale or "bench",
        duration_seconds=args.duration or 0.0,
    )
    out = args.output or pathlib.Path("results") / f"scenario_{spec.name}.json"
    out = pathlib.Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dump_scenario(spec, out)
    print(
        f"imported {len(spec.events[0].arrivals)} arrivals from {args.trace} "
        f"-> {out} (duration {spec.duration_seconds:g}s)"
    )
    if args.run:
        result = ScenarioRunner(spec, seed=args.seed).run()
        print()
        print(result.render_report())
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from .obs import JsonlTraceSink
    from .p2p.config import SystemConfig
    from .p2p.system import P2PSystem

    system = P2PSystem(SystemConfig.bench(seed=args.seed))
    system.populate_static(args.peers)
    sink = JsonlTraceSink(args.output)
    tracer = system.attach_tracer(sink)
    try:
        for _ in range(args.slots):
            system.run_slot()
    finally:
        tracer.close()
    print(f"wrote {sink.n_records} slot spans -> {args.output}")
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from .obs import load_trace, summarize_trace

    print(summarize_trace(load_trace(args.trace), label=str(args.trace)))
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from .obs import diff_traces, load_trace

    label_a = args.label_a or pathlib.Path(args.trace_a).stem
    label_b = args.label_b or pathlib.Path(args.trace_b).stem
    print(
        diff_traces(
            load_trace(args.trace_a), load_trace(args.trace_b),
            label_a, label_b,
        )
    )
    return 0


def _cmd_trace_rollup(args: argparse.Namespace) -> int:
    from .obs import load_trace, rollup_traces

    traces = {pathlib.Path(p).stem: load_trace(p) for p in args.traces}
    print(rollup_traces(traces))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-p2p",
        description="Reproduce 'Socially-optimal ISP-aware P2P Content "
        "Distribution via a Primal-Dual Approach' (Zhao & Wu, 2014)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="reproduce the paper's figures")
    figures.add_argument(
        "--figure", choices=sorted(FIGURES), default=None, help="one figure only"
    )
    figures.add_argument(
        "--scale",
        choices=("tiny", "bench", "paper"),
        default="bench",
        help="workload scale (paper = full Section V setting, slow)",
    )
    figures.set_defaults(func=_cmd_figures)

    sweep = sub.add_parser("sweep-epsilon", help="ablation: ε work/optimality trade-off")
    sweep.set_defaults(func=_cmd_sweep_epsilon)

    solvers = sub.add_parser("solvers", help="ablation: auction vs exact oracles")
    solvers.set_defaults(func=_cmd_solvers)

    shootout = sub.add_parser("shootout", help="ablation: all schedulers on one workload")
    shootout.set_defaults(func=_cmd_shootout)

    strategic = sub.add_parser(
        "strategic", help="manipulation study + VCG fix (paper's future work)"
    )
    strategic.set_defaults(func=_cmd_strategic)

    scenario = sub.add_parser(
        "scenario", help="declarative scenario engine (catalog + custom specs)"
    )
    scn_sub = scenario.add_subparsers(dest="scenario_action", required=True)
    scn_list = scn_sub.add_parser("list", help="list the registered scenarios")
    scn_list.set_defaults(func=_cmd_scenario_list)
    scn_run = scn_sub.add_parser(
        "run", help="run one scenario (catalog name or a .yaml/.json spec file)"
    )
    scn_run.add_argument(
        "name", help="registered scenario name, or path to a spec file"
    )
    scn_run.add_argument(
        "--scale",
        choices=("tiny", "bench", "paper"),
        default=None,
        help="workload scale (default: bench, or the spec file's own)",
    )
    scn_run.add_argument(
        "--duration", type=float, default=None,
        help="override the measured horizon in seconds (drops warm-up)",
    )
    scn_run.add_argument(
        "--output", type=pathlib.Path, default=None,
        help="report path (default results/scenario_<name>.txt)",
    )
    scn_run.add_argument(
        "--no-save", action="store_true", help="print the report only"
    )
    scn_run.set_defaults(func=_cmd_scenario_run)
    scn_import = scn_sub.add_parser(
        "import-trace",
        help="convert a VoD arrival log (CSV/JSON: time, peer, video) "
        "into a replayable scenario spec file",
    )
    scn_import.add_argument("trace", help="path to the arrival log")
    scn_import.add_argument(
        "--name", default=None, help="scenario name (default trace-<stem>)"
    )
    scn_import.add_argument(
        "--scale",
        choices=("tiny", "bench", "paper"),
        default=None,
        help="system scale preset for the replay (default bench)",
    )
    scn_import.add_argument(
        "--duration", type=float, default=None,
        help="horizon in seconds (default: last arrival + 2 slots)",
    )
    scn_import.add_argument(
        "--output", type=pathlib.Path, default=None,
        help="spec file path (default results/scenario_<name>.json)",
    )
    scn_import.add_argument(
        "--run", action="store_true",
        help="also run the imported scenario and print its report",
    )
    scn_import.set_defaults(func=_cmd_scenario_import_trace)

    trace = sub.add_parser(
        "trace", help="slot-phase telemetry: record and analyse JSONL traces"
    )
    trc_sub = trace.add_subparsers(dest="trace_action", required=True)
    trc_record = trc_sub.add_parser(
        "record",
        help="trace SystemConfig.bench (as is, R=4) on a static swarm to JSONL",
    )
    trc_record.add_argument(
        "output", type=pathlib.Path, help="trace output path (.jsonl)"
    )
    trc_record.add_argument(
        "--peers", type=int, default=5000, help="static swarm size"
    )
    trc_record.add_argument(
        "--slots", type=int, default=2, help="slots to run"
    )
    trc_record.set_defaults(func=_cmd_trace_record)
    trc_summarize = trc_sub.add_parser(
        "summarize", help="per-slot table + totals for one trace"
    )
    trc_summarize.add_argument("trace", type=pathlib.Path, help="trace file")
    trc_summarize.set_defaults(func=_cmd_trace_summarize)
    trc_diff = trc_sub.add_parser(
        "diff", help="compare aggregate counters of two traces (timing excluded)"
    )
    trc_diff.add_argument("trace_a", type=pathlib.Path, help="baseline trace")
    trc_diff.add_argument("trace_b", type=pathlib.Path, help="candidate trace")
    trc_diff.add_argument("--label-a", default=None, help="name for column A")
    trc_diff.add_argument("--label-b", default=None, help="name for column B")
    trc_diff.set_defaults(func=_cmd_trace_diff)
    trc_rollup = trc_sub.add_parser(
        "rollup", help="one summary row per trace file"
    )
    trc_rollup.add_argument(
        "traces", type=pathlib.Path, nargs="+", help="trace files"
    )
    trc_rollup.set_defaults(func=_cmd_trace_rollup)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
