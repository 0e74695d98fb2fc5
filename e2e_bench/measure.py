"""One workload, one interpreter: set up, warm up, time ops, check them.

Load model: a closed loop of one caller -- the next op starts when the
previous one returned (the box has two cores; a second caller would
only measure contention with the first).  The fleet workloads advance
the chaos driver's virtual step clock; nothing sleeps.

Host times are CPU seconds at nominal host speed.  Wall time on this box
is not a measurement: its speed swings by tens of percent over tens of
seconds (noisy neighbours; identical work read 42-64 ms/frame within
two minutes), and the disk under the fleet workloads' ``os.replace``
calls stalls for hundreds of milliseconds at a time -- more than any
bound worth having, and slower than any affordable run averages out.
So each op is charged the CPU time the process spent on it
(``process_time_ns``; every workload is one thread), scaled by the
host's speed around the op: a fixed reference loop is timed, in CPU
time too, immediately before and after the op, and the op's time is
multiplied by ``REF_NOMINAL_NS / measured``.  On a quiet host at nominal
speed the result is plain wall seconds for the CPU-bound stack
workloads.

Two clocks come out of that.  ``records_per_s`` uses all of it, user +
system: the program's own code and the kernel's work on its behalf
(``write``, ``rename``, ``unlink``), so adding or removing file
operations moves it -- but the kernel's part swells two- to four-fold
while other tenants keep the disk busy, so its bound is wide.
``frames_per_s`` uses the user-mode part alone (CPU time minus
``ru_stime``), which repeats to a few percent and carries the tight
bound; on the stack workloads the kernel's share is 1-2% and the two
agree.  Neither sees time the process was off the CPU -- preempted, or
asleep while the disk completes a rename; raw wall time, that wait, the
kernel's share and the speed factor are reported per op as ``host.*``
diagnostics.  The traced run's spans are on the user + system clock and
scaled the same way, so the per-layer rows add up to the op time behind
``records_per_s``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns, process_time_ns
from typing import Dict, List, Optional, Sequence

from e2e_bench import BENCH_DIR, OUT_DIR, ROOT
from e2e_bench import metrics as M
from e2e_bench.trace import ROOT as ROOT_SPAN
from e2e_bench.trace import Tracer, install
from e2e_bench.workloads import Observation, OpSpec, derive_seeds, make

#: CPU time of a warm :func:`reference_loop` pass on this box when
#: nothing else runs.
REF_NOMINAL_NS = 3_700_000
#: Child interpreters timed for ``setup_s`` (their median is reported).
SETUP_PROBES = 5


def reference_loop() -> int:
    """A fixed piece of interpreter work: tuple-keyed dict traffic, the
    instruction mix the simulator and the clustering loop are made of."""
    table = {}
    for i in range(10_000):
        table[(i, i + 1, i + 2)] = i
    total = 0
    for i in range(10_000):
        total += table.get((i, i + 1, i + 2), 0)
    return total


def timed_reference() -> int:
    """CPU nanoseconds one pass of the reference loop takes just now.

    An untimed pass goes first: right after an op the loop runs 20-35%
    slower than a moment later, by however much of the caches and the
    allocator's free lists the op turned over -- a property of the
    program under test, which the reference must not depend on.
    """
    reference_loop()
    start = process_time_ns()
    reference_loop()
    return process_time_ns() - start


# ----------------------------------------------------------------------
# Pins
# ----------------------------------------------------------------------
def pins_path(workload: str) -> Path:
    return BENCH_DIR / "expected" / f"{workload}.json"


def load_pins(workload: str) -> Dict[str, dict]:
    path = pins_path(workload)
    if not path.exists():
        return {}
    return json.loads(path.read_text())["pins"]


def sim_summary(sim: Dict[str, List[int]]) -> Dict[str, int]:
    """Exact (integer) summary of one op's sim-time samples."""
    out: Dict[str, int] = {}
    for key, values in sorted(sim.items()):
        out[f"{key}.n"] = len(values)
        if values:
            out[f"{key}.p50"] = M.percentile(values, 50)
            out[f"{key}.p95"] = M.percentile(values, 95)
    return out


def pin_of(obs: Observation) -> dict:
    """What ``expected/`` stores for one op."""
    return {"digest": obs.digest, "sim": sim_summary(obs.sim)}


def verdict(obs: Observation, pinned: Optional[dict]) -> str:
    """Empty when the op passed, else why it failed."""
    if not obs.ok:
        return obs.detail or "run reported failure"
    if pinned is None:
        return "no pinned output (run `python -m e2e_bench pin`)"
    actual = pin_of(obs)
    if actual["sim"] != pinned["sim"]:
        moved = sorted(
            key for key in set(actual["sim"]) | set(pinned["sim"])
            if actual["sim"].get(key) != pinned["sim"].get(key)
        )
        return f"sim-time values moved: {', '.join(moved)}"
    if actual["digest"] != pinned["digest"]:
        return "output digest differs from the pinned one"
    return ""


# ----------------------------------------------------------------------
# Timed ops
# ----------------------------------------------------------------------
@dataclass
class OpRecord:
    """One timed op."""

    index: int
    spec: OpSpec
    wall_ns: int
    #: Process CPU time, user + system (``process_time_ns``).
    cpu_ns: int
    #: System-mode part of it (``ru_stime``: sampled on the 4 ms tick;
    #: a diagnostic, not part of any metric).
    sys_ns: int
    #: Reference-loop CPU time, mean of just before and just after.
    ref_ns: float
    obs: Observation
    failure: str
    #: What the tracer's boundary counters added during this op.
    trace_counts: Dict[str, float]

    @property
    def speed_scale(self) -> float:
        """What turns CPU time during this op into nominal-speed time."""
        return REF_NOMINAL_NS / self.ref_ns

    @property
    def scaled_ns(self) -> float:
        """CPU time (user + system) at nominal host speed."""
        return self.cpu_ns * self.speed_scale

    @property
    def user_scaled_ns(self) -> float:
        """Its user-mode part: what the program's own code ran."""
        return (self.cpu_ns - self.sys_ns) * self.speed_scale


def _sys_ns() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_stime * 1e9)


def run_phase(
    workload,
    seeds: Sequence[int],
    scratch: Path,
    pins: Dict[str, dict],
    seconds: Optional[float] = None,
    ops: Optional[int] = None,
    start: int = 0,
    tracer: Optional[Tracer] = None,
) -> List[OpRecord]:
    """Time exactly *ops* ops, or ops for *seconds* stopping on a whole
    group of kinds, from position *start* of the workload's sequence."""
    records: List[OpRecord] = []
    phase_start = perf_counter_ns()
    index = start
    while True:
        done = index - start
        if ops is not None:
            if done >= ops:
                break
        elif (
            done and done % workload.group == 0
            and perf_counter_ns() - phase_start >= seconds * 1e9
        ):
            break
        spec = workload.spec_at(seeds, index)
        prepared = workload.prepare(spec, scratch)
        gc.collect()
        counts_before = dict(tracer.counts) if tracer is not None else {}
        ref_before = timed_reference()
        if tracer is not None:
            tracer.begin_op(index)
        sys_start = _sys_ns()
        cpu_start = process_time_ns()
        wall_start = perf_counter_ns()
        handle = workload.run(spec, prepared)
        wall_ns = perf_counter_ns() - wall_start
        cpu_ns = process_time_ns() - cpu_start
        sys_ns = min(cpu_ns, _sys_ns() - sys_start)
        if tracer is not None:
            tracer.end_op()
        ref_after = timed_reference()
        trace_counts: Dict[str, float] = {}
        if tracer is not None:
            trace_counts = {
                name: value - counts_before.get(name, 0)
                for name, value in tracer.counts.items()
            }
        obs = workload.observe(spec, handle)
        records.append(OpRecord(
            index=index, spec=spec, wall_ns=wall_ns, cpu_ns=cpu_ns,
            sys_ns=sys_ns, ref_ns=(ref_before + ref_after) / 2, obs=obs,
            failure=verdict(obs, pins.get(spec.pin)),
            trace_counts=trace_counts,
        ))
        index += 1
    workload.cleanup(scratch)
    return records


def typical_ns(
    records: Sequence[OpRecord], side: str = "main", user_only: bool = False
) -> float:
    """Scaled op time: each kind's median, averaged over the kinds."""
    by_kind: Dict[str, List[float]] = {}
    for record in records:
        if record.spec.side == side:
            by_kind.setdefault(record.spec.kind, []).append(
                record.user_scaled_ns if user_only else record.scaled_ns
            )
    if not by_kind:
        return 0.0
    return statistics.fmean(
        statistics.median(values) for values in by_kind.values()
    )


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def setup_probe(workload_name: str, seed: int) -> None:
    """What a fresh interpreter pays before its first timed op: import,
    input generation, scratch directory and driver construction."""
    workload = make(workload_name)
    scratch = OUT_DIR / "tmp" / f"probe-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        spec = workload.spec_at(derive_seeds(seed), 0)
        workload.build(spec, workload.prepare(spec, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_setup(workload_name: str, seed: int, probes: int) -> Dict[str, float]:
    """Median scaled CPU time (and raw wall time) of fresh set-ups."""
    command = [
        sys.executable, "-m", "e2e_bench", "setup-probe",
        "--workload", workload_name, "--seed", str(seed),
    ]
    scaled: List[float] = []
    raw: List[float] = []
    ref_before = timed_reference()
    for _ in range(probes):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = perf_counter_ns()
        subprocess.run(command, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        raw.append((perf_counter_ns() - start) / 1e9)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        ref_after = timed_reference()
        scaled.append(
            (after.ru_utime + after.ru_stime
             - before.ru_utime - before.ru_stime)
            * REF_NOMINAL_NS / ((ref_before + ref_after) / 2)
        )
        ref_before = ref_after
    return {"setup_s": statistics.median(scaled),
            "raw_setup_s": statistics.median(raw)}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def host_metrics(records: Sequence[OpRecord]) -> Dict[str, float]:
    """Diagnostics of the host during one phase (raw wall times)."""
    main = [r for r in records if r.spec.side == "main"]
    walls = [r.wall_ns / 1e6 for r in main]
    pct = M.tail_percentile(len(walls))
    return {
        "host.op_ms_p50": statistics.median(walls),
        "host.op_ms_hi": M.percentile(walls, pct),
        "host.op_hi_pct": pct,
        "host.ops": len(main),
        "host.cpu_wall_ratio": (
            sum(r.cpu_ns for r in records) / sum(r.wall_ns for r in records)
        ),
        "host.wait_ms_per_op": statistics.median(
            (r.wall_ns - r.cpu_ns) / 1e6 for r in main
        ),
        "host.sys_ms_per_op": statistics.fmean(r.sys_ns / 1e6 for r in main),
        "host.speed_factor": (
            statistics.median(r.ref_ns for r in records) / REF_NOMINAL_NS
        ),
    }


def is_noisy(host: Dict[str, float]) -> bool:
    """The noise guard: the host stole CPU or stretched the tail."""
    return (
        host["host.cpu_wall_ratio"] < 0.85
        or host["host.op_ms_hi"] > 1.5 * host["host.op_ms_p50"]
    )


def monitor_overhead(records: Sequence[OpRecord], frames: int) -> Dict[str, float]:
    """Paired (monitored - unmonitored) scaled op time, per frame, on
    the clock of ``frames_per_s``.

    Only ``stack_sparse`` has pairs; elsewhere every value is 0.
    """
    diffs: List[float] = []
    for first, second in zip(records[::2], records[1::2]):
        sides = {first.spec.side: first, second.spec.side: second}
        if set(sides) == {"main", "unmonitored"}:
            diffs.append(
                (sides["main"].user_scaled_ns
                 - sides["unmonitored"].user_scaled_ns)
                / 1e6 / frames
            )
    if not diffs:
        return {name: 0.0 for name in (
            "core.monitor.overhead_ms_per_frame",
            "core.monitor.overhead_ms_per_frame_q1",
            "core.monitor.overhead_ms_per_frame_q3",
            "core.monitor.overhead_pct", "unmonitored_frames_per_s",
        )}
    unmonitored_ms = (
        typical_ns(records, "unmonitored", user_only=True) / 1e6 / frames
    )
    q1, median, q3 = M.quartiles(diffs)
    return {
        "core.monitor.overhead_ms_per_frame": median,
        "core.monitor.overhead_ms_per_frame_q1": q1,
        "core.monitor.overhead_ms_per_frame_q3": q3,
        "core.monitor.overhead_pct": 100.0 * median / unmonitored_ms,
        "unmonitored_frames_per_s": 1e3 / unmonitored_ms,
    }


def first_group(records: Sequence[OpRecord], group: int) -> List[OpRecord]:
    return [r for r in records[:group] if r.spec.side == "main"]


def sim_metrics(records: Sequence[OpRecord], group: int) -> Dict[str, float]:
    """Modelled-time metrics pooled over the first group of ops; exact
    under a fixed seed, whatever the host did."""
    pooled: Dict[str, List[int]] = {}
    for record in first_group(records, group):
        for key, values in record.obs.sim.items():
            pooled.setdefault(key, []).extend(values)
    chain = pooled.get("chain_latency_ns", [])
    detect = pooled.get("detect_latency_ns", [])
    steps = pooled.get("converge_steps", [])
    return {
        "sim_chain_latency_ms_p50": M.percentile(chain, 50) / 1e6,
        "sim_chain_latency_ms_p95": M.percentile(chain, 95) / 1e6,
        "sim_chain_latency_samples": len(chain),
        "sim_detect_latency_us_p95": M.percentile(detect, 95) / 1e3,
        "sim_detect_latency_samples": len(detect),
        "sim_converge_steps": statistics.median(steps) if steps else 0.0,
    }


def count_metrics(records: Sequence[OpRecord], workload) -> Dict[str, float]:
    """Layer counters as per-op means over the first group of ops."""
    ops = first_group(records, workload.group)
    counts = {
        key: statistics.fmean(r.obs.counts.get(key, 0) for r in ops)
        for key in sorted({key for r in ops for key in r.obs.counts})
    }
    out = {name: counts.get(name, 0) for name in M.COUNT_METRICS}
    for name, key in (
        ("dds.samples_per_frame", "dds.samples"),
        ("ros.callbacks_per_frame", "ros.callbacks"),
        ("core.reports_per_frame", "core.reports"),
    ):
        out[name] = counts.get(key, 0) / workload.frames
    sent = out["telemetry.uplink.window.frames_sent"]
    out["telemetry.uplink.window.useful_frame_ratio"] = (
        (sent - out["telemetry.uplink.window.retransmits"]) / sent
        if sent else 0.0
    )
    return out


def layer_metrics(
    tracer: Tracer,
    self_ns: Dict[str, float],
    root_ns: float,
    traced: Sequence[OpRecord],
    untraced: Sequence[OpRecord],
    workload,
) -> Dict[str, float]:
    """Per-layer metrics of the traced phase next to its untraced twin.

    Rows are normalised by everything the traced phase ran: on
    ``stack_sparse`` that is monitored and unmonitored frames alike.
    """
    frames = sum(r.obs.frames for r in traced)
    divisors = {
        "frame": frames,
        "krec": sum(r.obs.records for r in traced) / 1e3,
        "op": len(traced),
    }
    out: Dict[str, float] = {}
    for name, (row, per) in M.ROW_METRICS.items():
        divisor = divisors[per]
        out[name] = self_ns.get(row, 0) / 1e6 / divisor if divisor else 0.0
    # Boundary counters are read off the first group only: later groups
    # of ``fault_storm`` pair scenarios with other seeds.
    group = traced[:workload.group]
    group_frames = sum(r.obs.frames for r in group)
    events_per_frame = sum(
        r.trace_counts.get("sim", 0) for r in group
    ) / group_frames
    out.update({
        "host.unattributed_pct": 100.0 * self_ns.get(ROOT_SPAN, 0) / root_ns,
        "perception.clustering.points_per_frame": sum(
            r.trace_counts.get("perception.clustering", 0) for r in group
        ) / group_frames,
        "sim.events_per_frame": events_per_frame,
        "sim.events_per_s":
            events_per_frame * workload.frames / (typical_ns(untraced) / 1e9),
        "telemetry.uplink.wal.bytes":
            tracer.maxima.get("telemetry.uplink.wal.append", 0),
        "telemetry.gateway.backlog_max":
            tracer.maxima.get("telemetry.gateway.handle", 0),
        "trace.overhead_pct":
            100.0 * (typical_ns(traced) / typical_ns(untraced) - 1.0),
    })
    return out


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
) -> dict:
    """Run one workload in this interpreter; returns the full record."""
    workload = make(workload_name)
    seeds = derive_seeds(seed)
    pins = load_pins(workload_name)
    scratch = OUT_DIR / "tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup(workload_name, seed, 1 if quick else SETUP_PROBES)
        if not quick:  # one untimed warm-up op per seed
            run_phase(workload, seeds, scratch, pins, ops=workload.warmup_ops)
        if not trace:
            untraced = run_phase(workload, seeds, scratch, pins,
                                 seconds=seconds, ops=2 if quick else None)
            records = untraced
        else:
            # Untraced and traced groups alternate, so the host's drift
            # lands on both sides of ``trace.overhead_pct`` alike.
            untraced, traced = [], []
            tracer = Tracer()
            step = 2 if quick else workload.group
            run_start = perf_counter_ns()
            while True:
                untraced += run_phase(workload, seeds, scratch, pins,
                                      ops=step, start=len(untraced))
                installation = install(tracer)
                try:
                    traced += run_phase(workload, seeds, scratch, pins,
                                        ops=step, start=len(traced),
                                        tracer=tracer)
                finally:
                    installation.uninstall()
                if quick or perf_counter_ns() - run_start >= seconds * 1e9:
                    break
            tracer.write_jsonl(OUT_DIR / f"{workload_name}.spans.jsonl")
            records = untraced + traced
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    host = host_metrics(untraced)
    values: Dict[str, float] = {
        "setup_s": setup["setup_s"],
        "frames_per_s":
            workload.frames / (typical_ns(untraced, user_only=True) / 1e9),
        "records_per_s": statistics.median(
            r.obs.records for r in untraced if r.spec.side == "main"
        ) / (typical_ns(untraced) / 1e9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host.raw_setup_s": setup["raw_setup_s"],
    }
    values.update(host)
    values.update(monitor_overhead(untraced, workload.frames))
    values.update(sim_metrics(untraced, workload.group))
    values.update(count_metrics(untraced, workload))
    rows = {}
    if trace:
        # Rows at nominal host speed, like the op times they add up to.
        self_ns, calls, root_ns = tracer.self_times(
            {r.index: r.speed_scale for r in traced}
        )
        values.update(layer_metrics(tracer, self_ns, root_ns, traced,
                                    untraced, workload))
        rows = {
            name: {"self_ms": ns / 1e6, "calls": calls[name],
                   "share_pct": 100.0 * ns / root_ns}
            for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1])
        }
    failures = [
        {"op": r.index, "pin": r.spec.pin, "why": r.failure}
        for r in records if r.failure
    ]
    return {
        "workload": workload_name,
        "seed": seed,
        "seeds": seeds,
        "trace": trace,
        "quick": quick,
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:20],
        "noisy": is_noisy(host),
        "values": values,
        "rows": rows,
        "ops": [
            [r.spec.kind, r.spec.side, r.wall_ns, r.cpu_ns, r.sys_ns,
             round(r.ref_ns)]
            for r in untraced
        ],
    }


def contract_line(record: dict) -> str:
    """The driver's result object: exactly the manifest's metrics for
    the mode that ran, each with its unit."""
    wanted = M.manifest_metrics("per_layer" if record["trace"] else "end_to_end")
    missing = [name for name in wanted if name not in record["values"]]
    if missing:
        raise SystemExit(f"metrics not measured: {', '.join(missing)}")
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["values"][name], "unit": unit}
            for name, unit in wanted.items()
        },
    })
