"""Compare two sets of runs against the bounds in ``BENCHMARK.json``.

A set is a file ``run --out`` appended to.  Per workload and end-to-end
metric: both medians, the ratio with its base, the bound, and a verdict.
``worse``: B's median is worse than A's by more than the bound.
``unresolved``: not worse, but a set's own spread (interquartile
distance over median) exceeds the bound and B does not beat A run for
run -- the sets cannot tell "unchanged" from "changed a little".
The monitored/unmonitored A/B of ``stack_sparse`` is judged the same
way against ``metrics.COMPARE_BOUNDS``.  Metrics that are exact under a
fixed seed (modelled time, layer counters) must be identical to the
digit.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List

from e2e_bench import metrics as M

#: Per-layer metrics that repeat exactly when the seed is the same.
EXACT_PREFIXES = ("sim_",)
EXACT = set(M.COUNT_METRICS) | {
    "dds.samples_per_frame", "ros.callbacks_per_frame",
    "core.reports_per_frame", "sim.events_per_frame",
    "perception.clustering.points_per_frame",
    "telemetry.uplink.window.useful_frame_ratio",
    "telemetry.uplink.wal.bytes", "telemetry.gateway.backlog_max",
}


def _load(path: Path) -> List[dict]:
    return json.loads(path.read_text())["runs"]


def _values(runs: List[dict], workload: str, phase: str, metric: str):
    return [
        run["results"][workload][phase]["values"][metric]
        for run in runs if workload in run["results"]
    ]


def verdict(a: List[float], b: List[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    if sign * (med_b - med_a) > bound * abs(med_a):
        return "worse"
    b_beats_a = all(sign * (y - x) < 0 for x in a for y in b)
    if max(M.spread(a), M.spread(b)) > bound and not b_beats_a:
        return "unresolved"
    return "ok"


def judged_metrics(manifest: dict, workload: str) -> List[dict]:
    """The manifest's end-to-end metrics, then the workload's own
    bounded ones: manifest entries with the bound added."""
    extra = M.COMPARE_BOUNDS.get(workload, {})
    return manifest["end_to_end"] + [
        dict(metric, bound=extra[metric["name"]])
        for metric in manifest["per_layer"] if metric["name"] in extra
    ]


def compare(path_a: Path, path_b: Path) -> int:
    manifest = M.load_manifest()
    runs_a, runs_b = _load(path_a), _load(path_b)
    if len({run["quick"] for run in runs_a + runs_b}) > 1:
        raise SystemExit("compare: --quick runs and full runs do not mix")
    print(f"A = {path_a} ({len(runs_a)} runs)   "
          f"B = {path_b} ({len(runs_b)} runs)")
    print(f"{'workload':<13s} {'metric':<34s} {'median A':>12s} "
          f"{'median B':>12s} {'B/A':>7s} {'spread A':>9s} {'spread B':>9s} "
          f"{'bound':>6s}  verdict")
    worse = 0
    for workload in (w["name"] for w in manifest["workloads"]):
        for metric in judged_metrics(manifest, workload):
            name = metric["name"]
            a = _values(runs_a, workload, "untraced", name)
            b = _values(runs_b, workload, "untraced", name)
            if not a or not b:
                continue
            result = verdict(a, b, metric["bound"], metric["better"])
            worse += result == "worse"
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{workload:<13s} {name:<34s} {med_a:>12.5g} {med_b:>12.5g} "
                  f"{med_b / med_a:>7.3f} {M.spread(a):>9.3f} "
                  f"{M.spread(b):>9.3f} {metric['bound']:>6.2f}  {result}"
                  f"   (base A, {metric['unit']}, {metric['better']} is better)")
        differ = _exact_differences(runs_a, runs_b, workload)
        print(f"{workload:<13s} exact metrics (modelled time, counters): "
              + ("identical" if not differ else "DIFFER: " + ", ".join(differ)))
        worse += bool(differ)
        failed = sum(
            run["results"][workload][phase]["failed"]
            for run in runs_a + runs_b if workload in run["results"]
            for phase in ("untraced", "traced")
        )
        if failed:
            print(f"{workload:<13s} {failed} failed ops across both sets")
            worse += 1
    return 1 if worse else 0


def _exact_differences(runs_a, runs_b, workload: str) -> List[str]:
    """Exact metrics whose value is not one and the same in every run
    of both sets that used the same seed."""
    by_seed: Dict[int, Dict[str, set]] = {}
    for run in runs_a + runs_b:
        if workload not in run["results"] or run.get("quick"):
            continue
        values = run["results"][workload]["traced"]["values"]
        seen = by_seed.setdefault(run["seed"], {})
        for name, value in values.items():
            if name in EXACT or name.startswith(EXACT_PREFIXES):
                seen.setdefault(name, set()).add(value)
    return sorted({
        name for seen in by_seed.values()
        for name, values in seen.items() if len(values) > 1
    })
