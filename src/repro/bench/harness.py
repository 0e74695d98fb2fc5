"""Benchmark harness: timing, statistics, JSON persistence, regression
comparison.

A benchmark is a callable returning the number of *units* it processed
(events fired, CSP solves, records ingested...).  Every bench is
single-threaded CPU work, so calls are timed with ``process_time_ns``
(time off the CPU is not charged) with the collector off.  CPU time
still swells with the host -- this one switches between speed regimes
1.6x apart every few hundred milliseconds -- so one fixed pure-Python
loop (:func:`reference_ns`) is timed before and after every call and
each call is also expressed in units of the reference beside it.
Suites persist as ``BENCH_<suite>.json``; ``--compare`` fails on
slowdowns of that *relative* median, so a baseline recorded on a quiet
host still judges a run made on a slow one.
"""

from __future__ import annotations

import gc
import json
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

#: Schema identifier written into (and required from) every bench file.
SCHEMA = "repro-bench/2"

#: Default slowdown tolerance for --compare (fraction of baseline median).
DEFAULT_THRESHOLD = 0.30


@dataclass
class BenchResult:
    """Statistics of one benchmark."""

    name: str
    #: Which layer of the system the benchmark exercises (kernel, dds,
    #: perception, budgeting, telemetry, warehouse, ...).
    layer: str
    iterations: int
    units: int
    unit: str
    median_ns: int
    p95_ns: int
    min_ns: int
    #: Units processed per second at the median iteration time.
    units_per_s: float
    #: Median of the :func:`reference_ns` timings taken between calls.
    reference_ns: int
    #: Median over the timed calls of ``call time / reference beside
    #: it`` (mean of the one before and the one after): what
    #: ``--compare`` judges.
    relative: float

    def to_json(self) -> dict:
        return {
            "reference_ns": self.reference_ns,
            "relative": round(self.relative, 4),
            "layer": self.layer,
            "iterations": self.iterations,
            "units": self.units,
            "unit": self.unit,
            "median_ns": self.median_ns,
            "p95_ns": self.p95_ns,
            "min_ns": self.min_ns,
            "units_per_s": round(self.units_per_s, 1),
        }


def reference_ns() -> int:
    """CPU ns of one fixed pure-Python loop: this host's speed just now.

    The fastest of three passes: the first refills the caches the call
    before it turned over.
    """
    def timed_pass() -> int:
        t0 = time.process_time_ns()
        table = {}
        for i in range(5_000):
            table[i, i + 1] = i
        for i in range(5_000):
            table[i, i + 1]
        return time.process_time_ns() - t0

    return min(timed_pass() for _ in range(3))


def run_bench(
    name: str,
    fn: Callable[[], int],
    *,
    layer: str,
    unit: str,
    iterations: int = 7,
    warmup: int = 1,
) -> BenchResult:
    """Time *fn* and fold the samples into a :class:`BenchResult`."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    units = 0
    for _ in range(warmup):
        units = int(fn())
    samples: List[int] = []
    gc.collect()  # as timeit does: the previous bench's garbage is not ours
    gc.disable()
    try:
        references = [reference_ns()]
        for _ in range(iterations):
            t0 = time.process_time_ns()
            units = int(fn())
            samples.append(time.process_time_ns() - t0)
            references.append(reference_ns())
    finally:
        gc.enable()
    relative = statistics.median(
        2 * sample / (before + after)
        for sample, before, after in zip(samples, references, references[1:])
    )
    samples.sort()
    median_ns = max(1, int(statistics.median(samples)))
    p95_index = min(len(samples) - 1, int(round(0.95 * (len(samples) - 1))))
    per_second = units / (median_ns / 1e9)
    return BenchResult(
        name=name,
        layer=layer,
        iterations=iterations,
        units=max(units, 0),
        unit=unit,
        median_ns=median_ns,
        p95_ns=int(samples[p95_index]),
        min_ns=int(samples[0]),
        units_per_s=per_second,
        reference_ns=int(statistics.median(references)),
        relative=max(relative, 1e-9),
    )


def suite_to_json(suite: str, results: List[BenchResult]) -> dict:
    """The persisted representation of one benchmark suite."""
    return {
        "schema": SCHEMA,
        "suite": suite,
        "python": platform.python_version(),
        "benchmarks": {r.name: r.to_json() for r in results},
    }


def write_suite(path: Path, suite: str, results: List[BenchResult]) -> Path:
    """Write a suite file (two-space indent, trailing newline, sorted keys)."""
    payload = suite_to_json(suite, results)
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_suite(path: Path) -> dict:
    """Load and schema-check a previously written suite file."""
    data = json.loads(Path(path).read_text())
    validate_suite(data)
    return data


def validate_suite(data: dict) -> None:
    """Raise ``ValueError`` unless *data* matches the bench schema."""
    if not isinstance(data, dict):
        raise ValueError("bench file must contain a JSON object")
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unsupported bench schema {data.get('schema')!r}")
    for key in ("suite", "benchmarks"):
        if key not in data:
            raise ValueError(f"bench file missing {key!r}")
    if not isinstance(data["benchmarks"], dict):
        raise ValueError("'benchmarks' must be an object")
    required = {
        "median_ns", "p95_ns", "units", "unit", "units_per_s", "layer",
        "reference_ns", "relative",
    }
    for name, entry in data["benchmarks"].items():
        missing = required - set(entry)
        if missing:
            raise ValueError(f"benchmark {name!r} missing fields {sorted(missing)}")
        for key in ("median_ns", "reference_ns", "relative"):
            if entry[key] <= 0:
                raise ValueError(f"benchmark {name!r} has non-positive {key}")


@dataclass
class Comparison:
    """Per-benchmark verdict of a --compare run."""

    name: str
    baseline_median_ns: int
    current_median_ns: int
    #: current / baseline ``relative`` median (call time in units of the
    #: reference loop timed beside it) -- above 1.0 means slower at
    #: equal host speed.
    ratio: float
    regressed: bool


@dataclass
class CompareReport:
    """Outcome of comparing a fresh run against a baseline file."""

    suite: str
    threshold: float
    comparisons: List[Comparison] = field(default_factory=list)
    #: Benchmarks in the baseline that the current run did not produce.
    missing: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.missing and not any(c.regressed for c in self.comparisons)

    def render(self) -> str:
        lines = [
            f"{'benchmark':32s} {'baseline':>12s} {'current':>12s} "
            f"{'ratio':>7s}  verdict"
        ]
        for c in sorted(self.comparisons, key=lambda c: c.name):
            verdict = "REGRESSED" if c.regressed else "ok"
            lines.append(
                f"{c.name:32s} {c.baseline_median_ns/1e6:>10.3f}ms "
                f"{c.current_median_ns/1e6:>10.3f}ms {c.ratio:>6.2f}x  {verdict}"
            )
        for name in self.missing:
            lines.append(f"{name:32s} {'-':>12s} {'-':>12s} {'-':>7s}  MISSING")
        lines.append(
            f"compare ({self.suite}, threshold +{self.threshold:.0%} "
            f"at equal host speed): "
            f"{'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join(lines)


def compare_suites(
    current: dict,
    baseline: dict,
    threshold: float = DEFAULT_THRESHOLD,
) -> CompareReport:
    """Compare a fresh suite against a baseline; flag >threshold slowdowns.

    What is compared is ``relative``: the median call time in units of
    the reference loop timed beside each call, i.e. at equal host speed.
    Benchmarks present only in the current run are ignored (new benches
    must not fail old baselines); benchmarks present only in the
    baseline are reported as missing and fail the comparison.
    """
    validate_suite(current)
    validate_suite(baseline)
    report = CompareReport(
        suite=str(current.get("suite", "?")), threshold=threshold
    )
    current_benchmarks: Dict[str, dict] = current["benchmarks"]
    for name, base in sorted(baseline["benchmarks"].items()):
        entry = current_benchmarks.get(name)
        if entry is None:
            report.missing.append(name)
            continue
        ratio = entry["relative"] / base["relative"]
        report.comparisons.append(
            Comparison(
                name=name,
                baseline_median_ns=int(base["median_ns"]),
                current_median_ns=int(entry["median_ns"]),
                ratio=ratio,
                regressed=ratio > 1.0 + threshold,
            )
        )
    return report


def render_suite(results: List[BenchResult]) -> str:
    """Human-readable table of one suite run."""
    lines = [
        f"{'benchmark':32s} {'layer':>10s} {'median':>12s} {'p95':>12s} "
        f"{'throughput':>18s}"
    ]
    for r in results:
        lines.append(
            f"{r.name:32s} {r.layer:>10s} {r.median_ns/1e6:>10.3f}ms "
            f"{r.p95_ns/1e6:>10.3f}ms {r.units_per_s:>12,.0f} {r.unit}/s"
        )
    return "\n".join(lines)
