"""Interleaved parent/change pairs of ``e2e_bench`` workloads.

The host's speed drifts by 10-40% within minutes, so two runs made at
different times say nothing; a pair made back to back does.  This runs

    python3 -m e2e_bench measure --workload W --seed n --seconds S --trace T

in two checkouts, pair n with ``--seed S+n-1`` (``--first-seed S``,
default 1), alternating which side goes first, and prints every value, each side's median [q1, q3], the wins
and the house-rule verdict: a gain is *claimed* when the change reads
better in at least nine tenths of the pairs (ties count for neither)
and the medians differ by more than the parent's inter-quartile
distance.  ``--workload`` repeats: the first is the claim (``--pairs``
pairs, gain rule), every further one a should-not-move table
(``--check-pairs`` pairs).  Every end-to-end metric of every table is
also held against its ``BENCHMARK.json`` bound: *within* it, *worse*
beyond it, or *unresolved* when the parent's own spread is wider than
the bound and the change does not win every comparison.  Run length,
metric names, directions and bounds come from the parent's
``BENCHMARK.json``.

    python3 benchmarks/e2e_pairs.py --parent ../parent --change . \\
        --workload fleet_clean --workload fleet_chaos --workload fault_storm \\
        [--pairs 10] [--check-pairs 3] [--trace 1 --metric NAME ...]

A held-out seed gets the same verdict: ``--first-seed 11 --pairs 3``
runs seeds 11, 12 and 13.  Use fresh checkouts for both sides (``git clone`` / ``git archive``), not
a working tree with build leftovers.  Not a test: pytest collects
nothing here.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List


def measure(checkout: Path, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "e2e_bench", "measure", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode not in (0, 1):  # 1: ops failed, still a record
        raise SystemExit(f"measure failed in {checkout}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(name: str, better: str, parent: List[float],
          change: List[float]) -> str:
    """One metric's medians [q1, q3], wins and the house-rule verdict."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    apart = sign * (c_med - p_med)
    claimed = wins >= 0.9 * len(parent) and apart > p_q3 - p_q1
    ratio = f"{c_med / p_med:.3f}x" if p_med else "n/a"
    return (
        f"{name} ({better} is better)\n"
        f"  parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]   "
        f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]   "
        f"change/parent {ratio} (base: parent median)\n"
        f"  change better in {wins}/{len(parent)}, worse in {losses}; "
        f"medians apart by {apart:.6g} vs parent IQR {p_q3 - p_q1:.6g}: "
        f"{'meets' if claimed else 'does not meet'} the gain rule"
    )


def hold(better: str, bound: float, parent: List[float],
         change: List[float]) -> str:
    """Whether the change's median stays within *bound* of the
    parent's, or the pairs cannot tell."""
    sign = -1.0 if better == "lower" else 1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    worse_by = -sign * (quartiles(change)[1] - p_med) / p_med if p_med else 0.0
    if worse_by > bound:
        verdict = "WORSE beyond the bound"
    elif (p_q3 - p_q1 > bound * abs(p_med)
          and not all(sign * (c - p) > 0 for c in change for p in parent)):
        verdict = "unresolved (parent IQR wider than the bound)"
    else:
        verdict = "within the bound"
    return f"  median worse by {worse_by:+.1%} vs bound {bound:.0%}: {verdict}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True,
                        help="repeatable: the claim first, then the "
                             "workloads predicted not to move")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--check-pairs", type=int, default=3,
                        help="pairs per workload after the first")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="pair n runs --seed FIRST_SEED+n-1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--metric", action="append", default=None,
                        help="default: the manifest's end-to-end metrics")
    args = parser.parse_args(argv)

    manifest = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = manifest["run_seconds"]
    better = {
        m["name"]: m["better"]
        for m in manifest["end_to_end"] + manifest["per_layer"]
    }
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    names = args.metric or list(bounds)
    unknown = [name for name in names if name not in better]
    if unknown:
        raise SystemExit(f"not in BENCHMARK.json: {', '.join(unknown)}")

    sides = {"parent": args.parent, "change": args.change}
    any_failed = False
    for index, workload in enumerate(args.workload):
        claim = index == 0
        pairs = args.pairs if claim else args.check_pairs
        values: Dict[str, Dict[str, List[float]]] = {
            side: {name: [] for name in names} for side in sides
        }
        attempted = failed = 0
        print(f"{workload} ({'claim' if claim else 'should not move'}): "
              f"{pairs} pairs, {seconds:g} s per run, trace {args.trace}")
        for pair in range(1, pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                record = measure(sides[side], workload,
                                 args.first_seed + pair - 1, seconds,
                                 args.trace)
                attempted += record["attempted"]
                failed += record["failed"]
                for name in names:
                    values[side][name].append(
                        record["metrics"][name]["value"]
                    )
            print(f"pair {pair:>2d} ({order[0]} first)  " + "  ".join(
                f"{name} {values['parent'][name][-1]:.6g} -> "
                f"{values['change'][name][-1]:.6g}" for name in names
            ), flush=True)
        print(f"{failed} failed ops of {attempted}")
        any_failed = any_failed or bool(failed)
        for name in names:
            parent, change = values["parent"][name], values["change"][name]
            print(judge(name, better[name], parent, change))
            if name in bounds:
                print(hold(better[name], bounds[name], parent, change))
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
