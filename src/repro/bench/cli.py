"""``python -m repro bench`` -- run benchmark suites, compare baselines.

Examples
--------
Run everything and write ``BENCH_kernel.json`` / ``BENCH_layers.json``::

    python -m repro bench --suite all --out .

Regression-check the kernel suite against a committed baseline (exits
non-zero when any benchmark got more than ``--threshold`` slower relative
to the reference loop timed beside it)::

    python -m repro bench --suite kernel --quick --compare BENCH_kernel.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.bench.harness import (
    DEFAULT_THRESHOLD,
    compare_suites,
    load_suite,
    render_suite,
    suite_to_json,
    write_suite,
)
from repro.bench.suites import SUITES, run_suite


def bench_file_name(suite: str) -> str:
    """Canonical file name for a suite (``BENCH_kernel.json``...)."""
    return f"BENCH_{suite}.json"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Per-layer microbenchmarks with JSON baselines and "
        "regression comparison (end-to-end: python -m e2e_bench).",
    )
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES) + ["all"],
        default="all",
        help="which suite to run (default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one warm-up call, then 5 timed iterations instead of 7 (CI smoke mode)",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="BENCH",
        help="run only the named benchmark(s); repeatable and "
        "comma-separable; --compare is restricted to the selected names",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="write BENCH_<suite>.json files into DIR",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="baseline BENCH_*.json (or a directory holding them); "
        "exit 1 on regression",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed median slowdown fraction for --compare "
        f"(default: {DEFAULT_THRESHOLD})",
    )
    parser.add_argument(
        "--warehouse",
        type=Path,
        default=None,
        metavar="DB",
        help="span warehouse to attribute flagged --compare regressions "
        "against (writes an attribution-diff artifact)",
    )
    parser.add_argument(
        "--attr-base",
        default="",
        metavar="SEL",
        help="warehouse base cohort selector, e.g. commit=abc "
        "(default: all runs)",
    )
    parser.add_argument(
        "--attr-head",
        default="",
        metavar="SEL",
        help="warehouse head cohort selector (default: all runs)",
    )
    parser.add_argument(
        "--attribution-out",
        type=Path,
        default=Path("attribution_diff.json"),
        metavar="PATH",
        help="where the attribution-diff artifact is written "
        "(default: attribution_diff.json)",
    )
    args = parser.parse_args(argv)

    only: Optional[List[str]] = None
    if args.only:
        only = [
            name for entry in args.only for name in entry.split(",") if name
        ]

    suites = sorted(SUITES) if args.suite == "all" else [args.suite]
    if only is not None:
        # Restrict to suites that contain at least one selected bench;
        # run_suite validates the names within each suite it runs.
        known = {
            name for entries in SUITES.values() for name, _, _, _ in entries
        }
        unknown = sorted(set(only) - known)
        if unknown:
            print(f"unknown benchmark(s): {unknown}")
            return 2
        suites = [
            suite for suite in suites
            if any(name for name, _, _, _ in SUITES[suite] if name in only)
        ]
    failed = False
    for suite in suites:
        suite_only = None
        if only is not None:
            suite_only = [
                name for name, _, _, _ in SUITES[suite] if name in only
            ]
        results = run_suite(suite, quick=args.quick, only=suite_only)
        print(f"==> {suite}")
        print(render_suite(results))
        if args.out is not None:
            if only is not None:
                print("--only with --out would write a partial baseline; "
                      "refusing")
                return 2
            args.out.mkdir(parents=True, exist_ok=True)
            path = write_suite(args.out / bench_file_name(suite), suite, results)
            print(f"wrote {path}")
        if args.compare is not None:
            baseline_path = args.compare
            if baseline_path.is_dir():
                baseline_path = baseline_path / bench_file_name(suite)
            try:
                baseline = load_suite(baseline_path)
            except (OSError, ValueError) as exc:
                print(f"cannot load baseline {baseline_path}: {exc}")
                failed = True
                continue
            if only is not None:
                # A filtered run must not fail on baseline benches it
                # never executed.
                ran = {r.name for r in results}
                baseline = dict(baseline)
                baseline["benchmarks"] = {
                    name: entry
                    for name, entry in baseline["benchmarks"].items()
                    if name in ran
                }
            report = compare_suites(
                suite_to_json(suite, results), baseline, threshold=args.threshold
            )
            print(report.render())
            if not report.passed and args.warehouse is not None:
                # Turn "the suite regressed" into "these edge
                # categories / segments regressed": attach the
                # warehouse attribution diff as a CI artifact.
                from repro.warehouse import (
                    RunSelector,
                    attach_attribution_diff,
                )

                out = args.attribution_out
                if len(suites) > 1:
                    out = out.with_name(f"{out.stem}_{suite}{out.suffix}")
                artifact = attach_attribution_diff(
                    report,
                    args.warehouse,
                    out,
                    RunSelector.parse(args.attr_base),
                    RunSelector.parse(args.attr_head),
                )
                print(f"wrote attribution diff to {artifact}")
            failed = failed or not report.passed
        print()
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
