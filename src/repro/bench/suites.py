"""The benchmark suites: per-layer microbenches.

End-to-end numbers (a perception frame with and without monitors, a
fault scenario, the vehicle -> WAL -> ARQ -> gateway -> store path) are
``e2e_bench``'s five workloads and are measured nowhere else.  The two
suites here time what no workload isolates:

- ``kernel`` (``BENCH_kernel.json``) -- the simulation substrate
  itself: kernel event dispatch (with and without a span recorder),
  cancellation sweeps, scheduler context switches and preemption, timer
  re-arming, and a full DDS publish -> executor -> callback round trip.
- ``layers`` (``BENCH_layers.json``) -- one row per layer above it: the
  vectorized perception numerics, the budgeting CSP solvers, columnar
  telemetry ingest, budget re-derivation + shadow validation, and
  warehouse ingest and query.

Every benchmark is deterministic (fixed seeds) and single-threaded CPU
work, so timings are attributable to code changes, not workload drift.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.harness import BenchResult, run_bench


# ----------------------------------------------------------------------
# kernel suite
# ----------------------------------------------------------------------
def _dispatch_workload(sim) -> int:
    """Schedule and fire 5000 bare kernel events on *sim*."""
    callback = (lambda: None)
    for i in range(5000):
        sim.schedule_at(i, callback)
    return sim.run()


def bench_kernel_dispatch() -> int:
    """Schedule-and-fire cost of bare kernel events."""
    from repro.sim import Simulator

    return _dispatch_workload(Simulator())


def bench_kernel_cancel_sweep() -> int:
    """Mode-change storm: repeated mass cancel + rearm sweeps.

    Each sweep cancels a quarter of the armed events outright and
    rearms the survivors at a later deadline -- the pattern a
    NORMAL->DEGRADED transition produces when deadline monitors are
    torn down and re-armed en masse.  The kernel's heap retires dead
    entries in bulk sweeps and rearms in place.  Units are queue
    operations (schedule, cancel, rearm, fire).
    """
    from repro.sim import Simulator

    sim = Simulator()
    callback = (lambda: None)
    n = 4000
    sweeps = 8
    horizon = 5_000_000
    events = [sim.schedule_at(horizon + i, callback) for i in range(n)]
    ops = n
    for sweep in range(2, sweeps + 2):
        base = horizon * sweep
        survivors = []
        for j, event in enumerate(events):
            if j % 4 == 0:
                event.cancel()
            else:
                survivors.append(sim.reschedule(event, base + j))
        ops += len(events)
        events = survivors
    return ops + sim.run()


def bench_timer_rearm() -> int:
    """Deadline-QoS style re-arming: every start cancels the last."""
    from repro.sim import Simulator
    from repro.sim.timers import Timer

    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(1))
    n = 3000
    for i in range(n):
        timer.start(100 + i)
    sim.run()
    return n


def bench_scheduler_pingpong() -> int:
    """Two threads ping-ponging via semaphores (context switches)."""
    from repro.sim import MulticoreScheduler, Semaphore, Simulator, WaitSem

    sim = Simulator()
    sched = MulticoreScheduler(sim, n_cores=1)
    a_sem = Semaphore(sim, initial=1)
    b_sem = Semaphore(sim)
    rounds = 500

    def ping(_):
        for _i in range(rounds):
            yield WaitSem(a_sem)
            b_sem.post()

    def pong(_):
        for _i in range(rounds):
            yield WaitSem(b_sem)
            a_sem.post()

    sched.spawn("ping", ping, priority=2)
    sched.spawn("pong", pong, priority=1)
    sim.run()
    return 2 * rounds


def bench_scheduler_preempt() -> int:
    """A low-priority hog preempted by a periodic high-priority task."""
    from repro.sim import Compute, MulticoreScheduler, Simulator, Sleep, msec, usec

    sim = Simulator()
    sched = MulticoreScheduler(sim, n_cores=1)
    periods = 100

    def hog(_):
        for _i in range(20):
            yield Compute(msec(5))

    def periodic(_):
        for _i in range(periods):
            yield Sleep(msec(1))
            yield Compute(usec(100))

    sched.spawn("hog", hog, priority=1)
    sched.spawn("periodic", periodic, priority=10)
    sim.run()
    return periods


def bench_tracing_spans_off() -> int:
    """Kernel dispatch with the span recorder absent (guards only)."""
    return bench_kernel_dispatch()


def bench_tracing_spans_on() -> int:
    """Same dispatch workload with a recorder attached and an ambient
    context, so every event captures and restores a span context."""
    from repro.sim import Simulator
    from repro.tracing.spans import SpanRecorder

    sim = Simulator()
    recorder = SpanRecorder(sim)
    sim.spans = recorder
    root = recorder.begin("bench", "compute", parent=None)
    recorder.current = root.context
    fired = _dispatch_workload(sim)
    recorder.end(root)
    return fired


def bench_dds_local_pubsub() -> int:
    """Publish -> deliver -> executor -> callback round trips on one ECU."""
    from repro.dds import DdsDomain, Topic
    from repro.ros import Node
    from repro.sim import Ecu, Simulator, usec

    sim = Simulator()
    ecu = Ecu(sim, "e", n_cores=2)
    domain = DdsDomain(sim, local_latency=usec(10))
    talker = Node(domain, ecu, "talker", priority=10)
    listener = Node(domain, ecu, "listener", priority=9)
    topic = Topic("t")
    count: List[int] = []
    listener.create_subscription(topic, lambda s: count.append(1))
    pub = talker.create_publisher(topic)
    n = 300
    for i in range(n):
        sim.schedule_at(i * usec(50), pub.publish, i)
    sim.run()
    assert len(count) == n
    return n


# ----------------------------------------------------------------------
# layers suite
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _fused_frames():
    """Eight fused front+rear frames of the default driving scenario.

    Cached: world generation happens once, outside the timed iterations
    (after the warm-up one), so the measured work is the detector
    path's alone.
    """
    from repro.perception.scenario import DrivingScenario, ScenarioConfig

    scenario = DrivingScenario(ScenarioConfig(seed=3))
    return [
        scenario.lidar_frame(frame, "front").concatenate(
            scenario.lidar_frame(frame, "rear")
        )
        for frame in range(8)
    ]


def bench_perception_numerics() -> int:
    """The stack's per-frame numerics on the traffic the stack serves.

    Eight fused front+rear frames of the default ``DrivingScenario``
    (~5.8k points each, ~2.9k of them non-ground, 2-3 clusters) through
    ``classify_ground`` -> ``euclidean_clusters`` ->
    ``boxes_from_clusters``.  Units are fused points.
    """
    from repro.perception.clustering import boxes_from_clusters, euclidean_clusters
    from repro.perception.ground_filter import classify_ground

    points = 0
    for cloud in _fused_frames():
        nonground = cloud.select(~classify_ground(cloud))
        clusters = euclidean_clusters(nonground.xyz)
        boxes_from_clusters(nonground.xyz, clusters)
        points += len(cloud)
    return points


def _budgeting_problem():
    from repro.budgeting import BudgetingProblem, ChainTrace, SegmentTrace
    from repro.core import EventChain, MKConstraint
    from repro.core.segments import local_segment, remote_segment

    rng = np.random.default_rng(11)
    n_segments, n_activations = 4, 400
    segments = []
    for i in range(n_segments):
        if i % 2 == 0:
            seg = remote_segment(f"s{i}", f"t{i}", "ecuA", "ecuB")
        else:
            seg = local_segment(f"s{i}", "ecuB", f"t{i-1}", f"t{i}")
        segments.append(seg)
    for earlier, later in zip(segments, segments[1:]):
        later.start = earlier.end
    chain = EventChain(
        name="bench", segments=segments, period=100, budget_e2e=260,
        budget_seg=100, mk=MKConstraint(2, 8),
    )
    trace = ChainTrace("bench")
    for seg in segments:
        base = rng.integers(20, 60)
        lats = np.clip(
            rng.lognormal(np.log(base), 0.4, size=n_activations), 5, 400
        ).astype(int)
        trace.add(SegmentTrace(seg.name, [int(v) for v in lats]))
    return BudgetingProblem(chain, trace)


def bench_budgeting_solve() -> int:
    """Independent + greedy + branch-and-bound solves of one instance."""
    from repro.budgeting import (
        solve_branch_and_bound,
        solve_greedy_propagated,
        solve_independent,
    )

    problem = _budgeting_problem()
    solve_independent(problem)
    solve_greedy_propagated(problem)
    solve_branch_and_bound(problem)
    return 3


@functools.lru_cache(maxsize=None)
def _fleet_stream():
    """The fleet stream of the telemetry ingest bench.

    Cached: generation happens once, outside the timed iterations, so
    the measured work is the service's (queue, store, alert engine),
    not the generator's.
    """
    from repro.telemetry import FleetConfig, FleetLoadGenerator

    generator = FleetLoadGenerator(FleetConfig(vehicles=4, frames=120))
    return generator.config.store_config(), generator.batch()


def bench_telemetry_ingest_batched() -> int:
    """A fleet record stream through the columnar ingest -> alert path.

    One struct-of-arrays :class:`~repro.telemetry.batch.RecordBatch`
    through :meth:`~repro.telemetry.service.TelemetryService.ingest_batch`
    and the store's grouped/vectorized ``apply_batch``.
    """
    from repro.telemetry import ServiceConfig, TelemetryService

    store_config, batch = _fleet_stream()
    service = TelemetryService(ServiceConfig(store=store_config))
    service.ingest_batch(batch)
    service.drain()
    assert service.accounting_ok(), "telemetry accounting violated"
    return len(batch)


def bench_budget_resolve() -> int:
    """Closed-loop re-derivation: resolve d_mon from a fleet window and
    shadow-validate the resulting epoch (the control plane's hot path).
    """
    from repro.adaptive import BudgetEpoch, BudgetResolver, ShadowValidator
    from repro.adaptive.chaos import fleet_chain
    from repro.telemetry.records import segment_record

    chain = fleet_chain()
    rng = np.random.default_rng(13)
    medians = {"seg0": 4_000_000, "seg1": 6_000_000, "seg2": 8_000_000}
    records = []
    seq = 0
    activations = 256
    for vehicle in ("veh00", "veh01", "veh02"):
        for activation in range(activations):
            for segment, median in medians.items():
                latency = int(median * rng.lognormal(0.0, 0.18))
                records.append(segment_record(
                    vehicle, chain.name, segment, activation, latency,
                    "ok", (activation + 1) * chain.period, seq,
                ))
                seq += 1
    resolver = BudgetResolver({chain.name: chain})
    outcome = resolver.resolve(records)
    assert outcome.ok, "resolver failed on a clean window"
    candidate = outcome.epoch(epoch_id=1, parent_id=0)
    baseline = BudgetEpoch(epoch_id=0, budgets={
        chain.name: {
            seg.name: int(seg.d_mon) for seg in chain.segments
        },
    })
    verdict = ShadowValidator({chain.name: chain}).validate(
        records, candidate, baseline
    )
    assert verdict.activations == 3 * activations, "replay lost rows"
    return len(records)


#: Traced-run payload reused across warehouse bench iterations: the
#: simulation cost is paid once so the timed work is the warehouse's
#: (parse -> analyze -> index -> sketch), not the simulator's.
_WAREHOUSE_PAYLOAD: Dict[str, object] = {}


def _warehouse_payload():
    if not _WAREHOUSE_PAYLOAD:
        from repro.perception.stack import PerceptionStack, StackConfig
        from repro.warehouse import RunKey, RunManifest

        frames = 16
        runs = []
        for run_id, config in (
            ("bench-base", StackConfig(seed=1, spans=True)),
            ("bench-head", StackConfig(seed=7, link_loss=0.08, spans=True)),
        ):
            stack = PerceptionStack(config)
            stack.run(n_frames=frames)
            manifest = RunManifest.for_run(
                RunKey(run_id=run_id, commit=run_id, suite="bench"),
                stack.chains, frames,
            )
            runs.append((manifest, list(stack.spans.spans)))
        _WAREHOUSE_PAYLOAD["runs"] = runs
    return _WAREHOUSE_PAYLOAD["runs"]


def bench_warehouse_ingest() -> int:
    """Two traced runs through full warehouse ingestion.

    Measures the analysis-and-index path: span rows, per-instance
    critical paths with telescoping verification, edge/segment tables
    and DDSketch snapshot persistence into a fresh in-memory store.
    """
    from repro.warehouse import SpanWarehouse

    runs = _warehouse_payload()
    with SpanWarehouse(":memory:") as store:
        total = 0
        for manifest, spans in runs:
            result = store.ingest_run(manifest, spans)
            assert not result.skipped and result.n_instances > 0
            total += result.n_spans
    return total


def bench_warehouse_query() -> int:
    """Cohort aggregation + attribution diff over an ingested store.

    The populated in-memory store is cached across iterations (queries
    are read-only), so the timed work is the query layer's: sketch
    restore + merge per (chain, kind, key) and diff assembly -- the
    path the CI gate pays on every flagged regression.
    """
    from repro.warehouse import (
        RunSelector,
        SpanWarehouse,
        aggregate,
        attribution_diff,
    )

    if "store" not in _WAREHOUSE_PAYLOAD:
        store = SpanWarehouse(":memory:")
        for manifest, spans in _warehouse_payload():
            store.ingest_run(manifest, spans)
        _WAREHOUSE_PAYLOAD["store"] = store
    store = _WAREHOUSE_PAYLOAD["store"]
    rows = 0
    base = RunSelector(commit="bench-base")
    head = RunSelector(commit="bench-head")
    for selector in (base, head):
        agg = aggregate(store, selector)
        rows += sum(
            len(chain.categories) + len(chain.edges) + len(chain.segments)
            for chain in agg.chains.values()
        )
    diff = attribution_diff(store, base, head)
    assert diff["chains"], "diff produced no chains"
    rows += sum(
        len(entry["categories"]) + len(entry["segments"])
        for entry in diff["chains"].values()
    )
    return rows


#: suite name -> ordered list of (bench name, layer, unit, fn).
SUITES: Dict[str, List[Tuple[str, str, str, Callable[[], int]]]] = {
    "kernel": [
        ("kernel_dispatch", "kernel", "events", bench_kernel_dispatch),
        ("kernel_cancel_sweep", "kernel", "events", bench_kernel_cancel_sweep),
        ("tracing_spans_off", "tracing", "events", bench_tracing_spans_off),
        ("tracing_spans_on", "tracing", "events", bench_tracing_spans_on),
        ("timer_rearm", "kernel", "arms", bench_timer_rearm),
        ("scheduler_pingpong", "scheduler", "switches", bench_scheduler_pingpong),
        ("scheduler_preempt", "scheduler", "periods", bench_scheduler_preempt),
        ("dds_local_pubsub", "dds", "roundtrips", bench_dds_local_pubsub),
    ],
    "layers": [
        ("perception_numerics", "perception", "points", bench_perception_numerics),
        ("budgeting_solve", "budgeting", "solves", bench_budgeting_solve),
        ("ingest_batched", "telemetry", "records",
         bench_telemetry_ingest_batched),
        ("budget_resolve", "adaptive", "records", bench_budget_resolve),
        ("warehouse_ingest", "warehouse", "spans", bench_warehouse_ingest),
        ("warehouse_query", "warehouse", "rows", bench_warehouse_query),
    ],
}


def run_suite(
    suite: str,
    quick: bool = False,
    only: Optional[List[str]] = None,
) -> List[BenchResult]:
    """Run every benchmark of *suite*; quick mode = 5 timed iterations.

    Every bench gets one untimed warm-up call first, quick or not: the
    first call pays imports and cold caches, which made the quick rows
    fail ``--compare`` against baselines recorded warm; and the median
    of five survives the two neighbour bursts a few-ms bench meets on
    a shared host.

    *only* restricts the run to the named benchmarks.  Unknown names
    raise rather than silently measuring nothing.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} (have {sorted(SUITES)})")
    entries = SUITES[suite]
    if only is not None:
        available = {name for name, _, _, _ in entries}
        unknown = sorted(set(only) - available)
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {unknown} in suite {suite!r} "
                f"(have {sorted(available)})"
            )
        entries = [e for e in entries if e[0] in only]
    iterations = 5 if quick else 7
    results = []
    for name, layer, unit, fn in entries:
        results.append(
            run_bench(name, fn, layer=layer, unit=unit, iterations=iterations)
        )
    return results
