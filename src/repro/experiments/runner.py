"""Command-line experiment runner (``python -m repro <figure>``)."""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Callable, Dict


def _run_fig02() -> str:
    from repro.analysis import stats_table
    from repro.experiments.fig02_event_sequence import run_fig02

    result = run_fig02()
    mismatches = sum(
        1
        for e2e, comp in zip(result.e2e_front_objects, result.composed_front_objects)
        if e2e != comp
    )
    return (
        f"Fig. 2 ({result.n_frames} activations)\n"
        + stats_table(result.segment_stats)
        + f"\ncomposition mismatches: {mismatches} (expect 0)"
    )


def _run_fig03() -> str:
    from repro.experiments.fig03_error_case import run_fig03

    result = run_fig03()
    lines = [f"Fig. 3 (fault frame {result.fault_frame})"]
    for name, record in sorted(result.faulty.items()):
        lines.append(f"  {name:12s} {record.outcome.value}")
    lines.append(f"s3 informed immediately: {result.s3_informed_immediately}")
    return "\n".join(lines)


def _run_fig06() -> str:
    from repro.analysis import render_table
    from repro.experiments.fig06_interarrival import run_fig06

    result = run_fig06()
    rows = [
        [scenario, label, str(s.true_violations), str(s.true_positives),
         str(s.false_positives), str(s.missed)]
        for scenario, monitors in result.scores.items()
        for label, s in monitors.items()
    ]
    return "Fig. 6\n" + render_table(
        ["scenario", "monitor", "violations", "TP", "FP", "missed"], rows
    )


def _run_fig09() -> str:
    from repro.analysis import ascii_boxplot, stats_table
    from repro.experiments.fig09_segment_latencies import run_fig09

    result = run_fig09()
    return (
        f"Fig. 9 ({result.n_frames} activations)\n"
        + stats_table(result.stats)
        + "\n"
        + ascii_boxplot(result.stats, width=64)
        + f"\nexceptions: {result.exception_counts}"
    )


def _run_fig10() -> str:
    from repro.analysis import stats_table
    from repro.experiments.fig10_exception_latencies import run_fig10

    result = run_fig10()
    counts = {k: len(v) for k, v in result.exception_latencies.items()}
    return f"Fig. 10 (cases: {counts})\n" + stats_table(result.stats)


def _run_fig11() -> str:
    from repro.analysis import stats_table
    from repro.experiments.fig11_overheads import run_fig11

    result = run_fig11()
    return (
        f"Fig. 11 ({result.n_events} events, real host; exceptions: "
        f"{result.exceptions}, stale end events: {result.stale_end_events})\n"
        + stats_table(result.stats)
    )


def _run_fig12() -> str:
    from repro.analysis import stats_table
    from repro.experiments.fig12_remote_entry import run_fig12

    result = run_fig12()
    return f"Fig. 12 (timeouts: {result.n_timeouts})\n" + stats_table(result.stats)


def _run_budgeting() -> str:
    from repro.analysis import format_duration
    from repro.experiments.budgeting_study import run_budgeting_study

    result = run_budgeting_study()
    return (
        "Budgeting study\n"
        f"  p=0 exact:  {format_duration(result.independent.total)}\n"
        f"  p=1 greedy: {format_duration(result.greedy.total)}\n"
        f"  p=1 B&B:    {format_duration(result.exact.total)}\n"
        f"  verification (m,k) satisfied: {result.verification_mk_satisfied}"
    )


def _run_faults() -> str:
    from repro.faults import run_default_campaign

    result = run_default_campaign()
    report = result.render_report()
    if not result.passed:
        for scenario in result.scenarios:
            for failure in (scenario.soundness.failures
                            + scenario.completeness.failures):
                report += f"\n  {scenario.name}: {failure.detail}"
    return "Fault-injection campaign\n" + report


EXPERIMENTS: Dict[str, Callable[[], str]] = {
    "faults": _run_faults,
    "fig02": _run_fig02,
    "fig03": _run_fig03,
    "fig06": _run_fig06,
    "fig09": _run_fig09,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
    "fig12": _run_fig12,
    "budgeting": _run_budgeting,
}

#: One-line description of every subcommand, shown in ``--help`` and
#: mirrored by the README's CLI table (tests keep the two in sync).
SUBCOMMANDS: Dict[str, str] = {
    "adapt": "closed-loop budget control plane chaos sweep",
    "all": "run every figure experiment in sequence",
    "budgeting": "deadline-budgeting study (independent, greedy, B&B)",
    "chaos": "uplink fault+crash chaos sweep with ledger verification",
    "faults": "11-scenario fault campaign with per-chain oracle verdicts",
    "fig02": "event-sequence run: per-segment latency statistics",
    "fig03": "error-case walkthrough of one faulty activation",
    "fig06": "inter-arrival vs synchronized monitoring comparison",
    "fig09": "segment latency distributions (boxplots)",
    "fig10": "exception detection latencies by case",
    "fig11": "instrumentation overhead microbenchmark (real host)",
    "fig12": "remote timeout entry latencies by context",
    "gateway": "overload-hardened fleet gateway episode + status report",
    "telemetry": "fleet telemetry service: ingest load run + alerting",
    "trace": "causal span tracing with critical-path latency attribution",
}


#: Subcommands that own an argument parser: ``name -> "module:function"``
#: of a ``main(argv) -> int``, imported only when the subcommand runs.
PARSER_OWNERS: Dict[str, str] = {
    "adapt": "repro.adaptive.chaos:main",
    "chaos": "repro.telemetry.uplink.chaos:main",
    "gateway": "repro.telemetry.gateway.cli:main",
    "telemetry": "repro.telemetry.cli:main",
    "trace": "repro.experiments.trace_cli:main",
}


def _subcommand_epilog() -> str:
    width = max(len(name) for name in SUBCOMMANDS)
    lines = ["subcommands:"]
    for name in sorted(SUBCOMMANDS):
        lines.append(f"  {name:{width}s}  {SUBCOMMANDS[name]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    """Entry point for ``python -m repro``."""
    if argv is None:
        argv = sys.argv[1:]
    # Subcommands with their own argument parsers route before argparse.
    if argv and argv[0] in PARSER_OWNERS:
        module, _, function = PARSER_OWNERS[argv[0]].partition(":")
        return getattr(importlib.import_module(module), function)(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's figures ('telemetry' runs the "
        "fleet telemetry service, 'chaos' the uplink chaos sweep).",
        epilog=_subcommand_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        choices=sorted(SUBCOMMANDS),
        help="which subcommand to run (one-line descriptions below)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run experiments in N worker processes (default: 1, serial)",
    )
    args = parser.parse_args(argv)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.jobs > 1 and len(names) > 1:
        from repro.experiments.parallel import run_experiments_parallel

        for name, output in run_experiments_parallel(names, jobs=args.jobs):
            print(f"==> {name}")
            print(output)
            print()
        return 0
    for name in names:
        print(f"==> {name}")
        print(EXPERIMENTS[name]())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
