"""Command line of the benchmark.

``run`` is the one command for people: every workload, each in a fresh
interpreter, untraced then traced, every metric by name with its unit.
``measure`` is one such interpreter and is what ``BENCHMARK.json``'s
``command`` points the driver at.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from e2e_bench import OUT_DIR, ROOT
from e2e_bench import metrics as M


def _measure(args) -> int:
    from e2e_bench.measure import contract_line, measure

    record = measure(args.workload, args.seed, args.seconds,
                     trace=bool(args.trace), quick=args.quick)
    if args.full is not None:
        args.full.write_text(json.dumps(record))
    for failure in record["failures"]:
        print(f"FAILED op {failure['op']} [{failure['pin']}]: "
              f"{failure['why']}", file=sys.stderr)
    if record["noisy"]:
        print("noisy: true (host stole CPU or stretched the tail)",
              file=sys.stderr)
    print(contract_line(record))
    return 0


def _setup_probe(args) -> int:
    from e2e_bench.measure import setup_probe

    setup_probe(args.workload, args.seed)
    return 0


def _pin(args) -> int:
    from e2e_bench.pin import pin

    return pin(args.workload)


def _compare(args) -> int:
    from e2e_bench.compare import compare

    return compare(args.a, args.b)


# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: float, trace: bool,
           quick: bool) -> dict:
    """One workload in one fresh interpreter; returns its full record."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.NamedTemporaryFile(
        dir=OUT_DIR, suffix=".json", delete=False
    ) as handle:
        full = Path(handle.name)
    command = [
        sys.executable, "-m", "e2e_bench", "measure",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--full", str(full),
    ]
    if quick:
        command.append("--quick")
    try:
        subprocess.run(command, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        return json.loads(full.read_text())
    finally:
        full.unlink(missing_ok=True)


def _print_metrics(title: str, record: dict, names, units) -> None:
    print(f"  {title}: {record['attempted']} ops, {record['failed']} failed"
          f"{', NOISY' if record['noisy'] else ''}")
    for name in names:
        print(f"    {name:<52s} {record['values'][name]:>16.6g} {units[name]}")


def _run(args) -> int:
    manifest = M.load_manifest()
    units = M.all_units()
    e2e_names = list(M.manifest_metrics("end_to_end"))
    layer_names = list(M.manifest_metrics("per_layer"))
    wanted = args.workload or [w["name"] for w in manifest["workloads"]]
    why = {w["name"]: w["why"] for w in manifest["workloads"]}
    seconds = manifest["run_seconds"]
    results = {}
    failed = 0
    for name in wanted:
        print(f"== {name}  (seed {args.seed}"
              f"{', quick' if args.quick else f', {seconds:g} s per run'})")
        print(f"   {why[name]}")
        untraced = _child(name, args.seed, seconds, False, args.quick)
        _print_metrics("end-to-end, untraced", untraced, e2e_names, units)
        ops = untraced["attempted"]
        print(f"    {'failed_op_share':<52s} "
              f"{untraced['failed'] / ops:>16.6g} ratio")
        traced = _child(name, args.seed, seconds, True, args.quick)
        _print_metrics("per-layer, traced run", traced, layer_names, units)
        print("  trace rows (self time; rows sum to the op total):")
        for row, cells in traced["rows"].items():
            print(f"    {row:<40s} {cells['self_ms']:>12.3f} ms "
                  f"{cells['share_pct']:>6.2f} %  {cells['calls']:>8d} calls")
        for record in (untraced, traced):
            failed += record["failed"]
            for failure in record["failures"]:
                print(f"  FAILED op {failure['op']} [{failure['pin']}]: "
                      f"{failure['why']}")
        results[name] = {"untraced": untraced, "traced": traced}
    if args.out is not None:
        document = {"runs": []}
        if args.out.exists():
            document = json.loads(args.out.read_text())
        document["runs"].append(
            {"seed": args.seed, "quick": args.quick, "results": results}
        )
        args.out.write_text(json.dumps(document))
        print(f"run {len(document['runs'])} -> {args.out}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m e2e_bench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="all workloads, untraced + traced, every metric")
    run.add_argument("--workload", action="append", default=None)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--quick", action="store_true",
                     help="2 ops per run, no warm-up: a smoke, not a number")
    run.add_argument("--out", type=Path, default=None,
                     help="append this run to a JSON file for `compare`")
    run.set_defaults(fn=_run)

    measure = commands.add_parser(
        "measure", help="one workload in this interpreter (driver entry)")
    measure.add_argument("--workload", required=True)
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), required=True)
    measure.add_argument("--quick", action="store_true")
    measure.add_argument("--full", type=Path, default=None,
                         help="also write the full record here")
    measure.set_defaults(fn=_measure)

    probe = commands.add_parser(
        "setup-probe", help="set up one workload and exit (timed by measure)")
    probe.add_argument("--workload", required=True)
    probe.add_argument("--seed", type=int, required=True)
    probe.set_defaults(fn=_setup_probe)

    pin = commands.add_parser(
        "pin", help="regenerate expected/ (review the diff before commit)")
    pin.add_argument("--workload", action="append", default=None)
    pin.set_defaults(fn=_pin)

    compare = commands.add_parser(
        "compare", help="two sets of runs against the manifest's bounds")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    compare.set_defaults(fn=_compare)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
