"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``trace``      synthesize a trace and print the Section III analysis
``compare``    run the three protocols and print the comparison
``figures``    regenerate the Section V figures (15-18 + Table I)
``planetlab``  run the emulated PlanetLab testbed comparison
``lint``       determinism/invariant static analysis over the source tree
``profile``    run one protocol under the tracer; write the JSONL trace
               and the profile report, and print per-name counts,
               simulated and wall time (see docs/performance.md)
``dashboard``  render the self-contained HTML time-series dashboard
               for one protocol or a protocol comparison
``regress``    compare fresh runs against the committed baselines
               under per-metric tolerance bands (CI's drift gate)
``chaos``      run one protocol under the demo fault plan (crash
               churn, query loss, slow peers, brownouts) and write the
               canonical recovery time-series (see docs/tracing.md)
``export``     write every figure's data as CSV/JSON files
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro.analysis.clustering import build_channel_graph
from repro.analysis.figures import TraceAnalysis
from repro.experiments.config import SimulationConfig
from repro.experiments.figures import VARIANTS, EvaluationSuite
from repro.experiments.parallel import aggregate_sweep, run_sweep, sweep_specs
from repro.experiments.report import (
    render_ci_table,
    render_report,
    render_shape_checks,
    shape_checks,
)
from repro.planetlab.testbed import PlanetLabTestbed
from repro.trace.synthesizer import TraceConfig, synthesize_trace


def _parse_seeds(text: Optional[str]) -> Optional[List[int]]:
    """``"1,2,3"`` -> ``[1, 2, 3]``; None/empty passes through as None."""
    if not text:
        return None
    try:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise SystemExit(f"--seeds expects comma-separated integers: {exc}")
    if not seeds:
        raise SystemExit("--seeds expects at least one integer")
    return seeds


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse ``type=`` for widths that must be finite and above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _run_flags_parent() -> argparse.ArgumentParser:
    """The shared flag surface of every run-executing subcommand.

    ``compare``, ``figures``, ``profile``, ``chaos``, ``dashboard`` and
    ``regress`` all attach this parent, so
    ``--seed/--seeds/--jobs`` carry the same spelling, help
    text and validation everywhere instead of drifting per-subcommand
    copies.  ``--seed`` defaults to ``argparse.SUPPRESS`` so a
    subcommand-position ``--seed`` overrides the top-level one without
    clobbering its default when absent.  The single-run commands
    (``profile``, ``chaos <protocol>``) reject ``--jobs`` other
    than 1 through :func:`_reject_jobs`.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="RNG seed (also accepted before the subcommand; default 2014)",
    )
    parent.add_argument(
        "--seeds", default=None,
        help="comma-separated seed list for a multi-seed sweep (e.g. 1,2,3)",
    )
    parent.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for multi-run commands (1 = serial, the "
        "default); results are byte-identical for any value",
    )
    return parent


def _single_seed(args: argparse.Namespace, command: str) -> int:
    """The one seed of a single-run command.

    These commands replay exactly one trajectory, so ``--seeds`` is only
    accepted as an alias for ``--seed`` when it names a single value.
    """
    seeds = _parse_seeds(args.seeds)
    if seeds is None:
        return args.seed
    if len(seeds) > 1:
        raise SystemExit(
            f"{command} replays one seed per invocation; "
            f"pass --seed N (got --seeds {args.seeds})"
        )
    return seeds[0]


def _reject_jobs(args: argparse.Namespace, command: str) -> None:
    """Single-run commands execute in-process, so ``--jobs`` must stay 1."""
    if args.jobs != 1:
        raise SystemExit(
            f"{command} runs one spec in-process; --jobs applies only to "
            "multi-run commands"
        )


def _cmd_trace(args: argparse.Namespace) -> int:
    config = TraceConfig(seed=args.seed)
    dataset = synthesize_trace(config)
    print(dataset.summary())
    analysis = TraceAnalysis(dataset)
    for figure in analysis.all_figures():
        print("\n".join(figure.render_rows(max_rows=8)))
    graph = build_channel_graph(dataset, threshold=args.threshold, per_category=5)
    print(
        f"Fig 10: channel graph -- {graph.num_nodes} nodes, {graph.num_edges} edges, "
        f"intra-category edge fraction {graph.intra_category_edge_fraction():.3f}"
    )
    print("Observations:", analysis.check_observations())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = (
        SimulationConfig.smoke_scale(seed=args.seed)
        if args.quick
        else SimulationConfig.default_scale(seed=args.seed)
    )
    seeds = _parse_seeds(args.seeds)
    specs = sweep_specs(
        ("pavod", "nettube", "socialtube"), config, seeds=seeds
    )
    results = run_sweep(specs, jobs=args.jobs)
    if seeds and len(seeds) > 1:
        aggregates = aggregate_sweep(specs, results)
        for aggregate in aggregates:
            print("\n".join(aggregate.render_rows()))
            print()
        print(render_ci_table(aggregates))
    else:
        for result in results:
            print("\n".join(result.render_rows()))
            print()
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    seeds = _parse_seeds(args.seeds)
    suite = EvaluationSuite(
        config=(
            SimulationConfig.smoke_scale(seed=args.seed)
            if args.quick
            else SimulationConfig.default_scale(seed=args.seed)
        ),
        seeds=seeds,
        jobs=args.jobs,
    )
    environments = ("peersim",) if args.quick else ("peersim", "planetlab")
    suite.warm(environments=environments)
    print(render_report(suite.all_figures(environments=environments)))
    print(render_shape_checks(shape_checks(suite)))
    if seeds and len(seeds) > 1:
        aggregates = [
            suite.result(label, environments[0])
            for label, _name, _overrides in VARIANTS
        ]
        print(render_ci_table(aggregates))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import export_all

    dataset = synthesize_trace(TraceConfig(seed=args.seed))
    analysis = TraceAnalysis(dataset)
    suite = EvaluationSuite(
        config=(
            SimulationConfig.smoke_scale(seed=args.seed)
            if args.quick
            else SimulationConfig.default_scale(seed=args.seed)
        )
    )
    environments = ("peersim",) if args.quick else ("peersim", "planetlab")
    written = export_all(
        analysis.all_figures(),
        suite.all_figures(environments=environments),
        args.outdir,
    )
    for path in written:
        print(path)
    print(f"wrote {len(written)} artifacts to {args.outdir}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.runner import RULE_DESCRIPTIONS, explain_rule, run_lint

    if args.list_rules:
        for rule_id in sorted(RULE_DESCRIPTIONS):
            print(f"{rule_id}: {RULE_DESCRIPTIONS[rule_id]}")
        return 0
    if args.explain:
        text = explain_rule(args.explain)
        if text is None:
            print(f"unknown rule id {args.explain!r}; see --list-rules")
            return 2
        print(text)
        return 0
    return run_lint(paths=args.paths or None, output_format=args.format)


def _cmd_profile(args: argparse.Namespace) -> int:
    import os

    from repro.experiments.spec import ExperimentSpec
    from repro.obs.export import (
        profile_filename,
        profile_report_to_json_bytes,
        render_profile,
        run_profiled,
        trace_filename,
        write_trace,
    )

    _reject_jobs(args, "profile")
    seed = _single_seed(args, "profile")
    config = (
        SimulationConfig.default_scale(seed=seed)
        if args.full
        else SimulationConfig.smoke_scale(seed=seed)
    )
    spec = ExperimentSpec(
        protocol=args.protocol, config=config, environment=args.environment
    )
    _result, jsonl, report = run_profiled(spec)
    trace_path = write_trace(os.path.join(args.outdir, trace_filename(spec)), jsonl)
    payload = profile_report_to_json_bytes(report)
    report_path = write_trace(
        os.path.join(args.outdir, profile_filename(spec)), payload
    )
    print(render_profile(report))
    print(f"trace: {trace_path} ({len(jsonl)} bytes)")
    print(f"profile report: {report_path} ({len(payload)} bytes)")
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    import os

    from repro.experiments.spec import ExperimentSpec
    from repro.obs.report import (
        collect_dashboard_runs,
        dashboard_filename,
        render_dashboard,
        write_dashboard,
    )

    seed = _single_seed(args, "dashboard")
    config = (
        SimulationConfig.default_scale(seed=seed)
        if args.full
        else SimulationConfig.smoke_scale(seed=seed)
    )
    protocols = [args.protocol]
    for name in args.compare or ():
        if name not in protocols:
            protocols.append(name)
    specs = [
        ExperimentSpec(
            protocol=name, config=config, environment=args.environment
        )
        for name in protocols
    ]
    runs = collect_dashboard_runs(specs, window_s=args.window, jobs=args.jobs)
    content = render_dashboard(runs, window_s=args.window)
    path = args.out or os.path.join(args.outdir, dashboard_filename(runs))
    write_dashboard(path, content)
    print(f"dashboard: {path} ({len(content)} bytes, {len(runs)} run(s))")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import os

    from repro.experiments.spec import ExperimentSpec
    from repro.faults.grid import family_plan
    from repro.faults.plan import FaultPlan
    from repro.obs.timeseries import run_with_timeseries

    seed = _single_seed(args, "chaos")
    if args.grid:
        from repro.faults.grid import grid_to_json_bytes, render_grid, run_grid

        scale = "default" if args.full else "smoke"
        cells = run_grid(
            seed=seed,
            scale=scale,
            jobs=args.jobs,
            protocols=(args.protocol,) if args.protocol else None,
        )
        payload = grid_to_json_bytes(cells, seed=seed, scale=scale)
        path = args.out or os.path.join(
            args.outdir, f"resilience_grid_{seed}.json"
        )
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(payload)
        print(render_grid(cells))
        print(f"grid: {path} ({len(payload)} bytes)")
        return 0
    if args.protocol is None:
        raise SystemExit("chaos needs a protocol (or --grid for the full grid)")
    _reject_jobs(args, "chaos <protocol>")
    config = (
        SimulationConfig.default_scale(seed=seed)
        if args.full
        else SimulationConfig.smoke_scale(seed=seed)
    )
    try:
        plan = family_plan(args.family) if args.family else FaultPlan.demo()
    except ValueError as exc:
        raise SystemExit(str(exc))
    spec = ExperimentSpec(
        protocol=args.protocol, config=config, environment=args.environment
    ).with_faults(plan)
    run = run_with_timeseries(spec, window_s=args.window)
    payload = run.table.to_canonical_json()
    path = args.out or os.path.join(
        args.outdir, f"chaos_{spec.protocol}_{spec.content_hash()[:16]}.json"
    )
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(payload)
    print("\n".join(run.result.render_rows()))
    print(f"timeseries: {path} ({len(payload)} bytes)")
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    from repro.obs.baseline import run_regression

    if args.seeds:
        raise SystemExit(
            "regress re-runs the committed baseline seeds; --seeds has no "
            "effect (update the baseline files to change them)"
        )
    return run_regression(
        baseline_dir=args.baselines,
        jobs=args.jobs,
        update=args.update,
        quick=args.quick,
    )


def _cmd_planetlab(args: argparse.Namespace) -> int:
    testbed = PlanetLabTestbed(SimulationConfig.planetlab_scale(seed=args.seed))
    for name in ("pavod", "nettube", "socialtube"):
        result = testbed.run(name)
        print("\n".join(result.render_rows()))
        print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SocialTube (ICDCS 2014) reproduction harness",
    )
    parser.add_argument("--seed", type=int, default=2014, help="master RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)
    run_flags = _run_flags_parent()

    p_trace = sub.add_parser("trace", help="trace synthesis + Section III analysis")
    p_trace.add_argument("--threshold", type=int, default=20)
    p_trace.set_defaults(func=_cmd_trace)

    p_compare = sub.add_parser(
        "compare", help="three-protocol comparison", parents=[run_flags]
    )
    p_compare.add_argument("--quick", action="store_true", help="tiny scale")
    p_compare.set_defaults(func=_cmd_compare)

    p_figures = sub.add_parser(
        "figures", help="regenerate Section V figures", parents=[run_flags]
    )
    p_figures.add_argument("--quick", action="store_true", help="tiny scale")
    p_figures.set_defaults(func=_cmd_figures)

    p_pl = sub.add_parser("planetlab", help="emulated PlanetLab comparison")
    p_pl.set_defaults(func=_cmd_planetlab)

    p_lint = sub.add_parser(
        "lint", help="determinism & overlay-invariant static analysis"
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p_lint.add_argument(
        "--list-rules", action="store_true", help="print every rule id and exit"
    )
    p_lint.add_argument(
        "--explain", metavar="RULE",
        help="print the long-form explanation for one rule id and exit",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_profile = sub.add_parser(
        "profile",
        help="traced run: JSONL trace + profile report (counts, sim and wall time)",
        parents=[run_flags],
    )
    p_profile.add_argument(
        "protocol", choices=("socialtube", "nettube", "pavod"),
        help="protocol stack to profile",
    )
    p_profile.add_argument(
        "--environment", default="peersim", help="named environment (see config)"
    )
    p_profile.add_argument(
        "--full", action="store_true",
        help="profile at the paper's full scale (default: smoke scale)",
    )
    p_profile.add_argument(
        "--outdir", default="traces_out",
        help="directory for the JSONL trace and the JSON profile report",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_dash = sub.add_parser(
        "dashboard", help="self-contained HTML time-series dashboard",
        parents=[run_flags],
    )
    p_dash.add_argument(
        "protocol", choices=("socialtube", "nettube", "pavod"),
        help="primary protocol to render",
    )
    p_dash.add_argument(
        "--compare", nargs="*", choices=("socialtube", "nettube", "pavod"),
        default=(), help="additional protocols overlaid on every chart",
    )
    p_dash.add_argument(
        "--environment", default="peersim", help="named environment (see config)"
    )
    p_dash.add_argument(
        "--full", action="store_true",
        help="render at the paper's full scale (default: smoke scale)",
    )
    p_dash.add_argument(
        "--window", type=_positive_float, default=600.0,
        help="window width in virtual seconds (default: 600)",
    )
    p_dash.add_argument(
        "--outdir", default="dashboard_out", help="directory for the HTML file"
    )
    p_dash.add_argument(
        "--out", default=None, help="explicit output path (overrides --outdir)"
    )
    p_dash.set_defaults(func=_cmd_dashboard)

    p_regress = sub.add_parser(
        "regress", help="compare fresh runs against committed metric baselines",
        parents=[run_flags],
    )
    p_regress.add_argument(
        "--baselines", default="baselines", help="baseline directory"
    )
    p_regress.add_argument(
        "--quick", action="store_true", help="only the smoke-scale baselines"
    )
    p_regress.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline files from fresh runs",
    )
    p_regress.set_defaults(func=_cmd_regress)

    p_chaos = sub.add_parser(
        "chaos", help="fault-injected run: crash churn + mid-stream failover",
        parents=[run_flags],
    )
    p_chaos.add_argument(
        "protocol", nargs="?", choices=("socialtube", "nettube", "pavod"),
        help="protocol stack to run under the fault plan (optional with "
        "--grid, where it restricts the grid to one protocol)",
    )
    p_chaos.add_argument(
        "--family",
        choices=(
            "community_crash", "tracker_outage", "partition", "flash_crowd",
            "infra",
        ),
        default=None,
        help="run one infrastructure fault family's demo scenario instead "
        "of the classic crash-churn plan ('infra' staggers all four)",
    )
    p_chaos.add_argument(
        "--grid", action="store_true",
        help="run the full resilience grid (protocols x fault families) "
        "and write the degradation scorecard JSON",
    )
    p_chaos.add_argument(
        "--environment", default="peersim", help="named environment (see config)"
    )
    p_chaos.add_argument(
        "--full", action="store_true",
        help="run at the paper's full scale (default: smoke scale)",
    )
    p_chaos.add_argument(
        "--window", type=_positive_float, default=600.0,
        help="window width in virtual seconds (default: 600)",
    )
    p_chaos.add_argument(
        "--outdir", default="chaos_out", help="directory for the series JSON"
    )
    p_chaos.add_argument(
        "--out", default=None, help="explicit output path (overrides --outdir)"
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    p_export = sub.add_parser("export", help="export all figures as CSV/JSON")
    p_export.add_argument("--outdir", default="figures_out")
    p_export.add_argument("--quick", action="store_true", help="tiny scale")
    p_export.set_defaults(func=_cmd_export)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
