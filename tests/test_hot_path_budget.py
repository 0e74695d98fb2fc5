"""Clock-free budget of the monitor -> scheduler -> kernel wake-up path.

The monitor is a simulated high-priority thread, so every event it
handles is paid for in the scheduler and the kernel.  This module runs
the sparse perception stack (tiny clouds: the simulator, not the
numerics, does the work) for 30 frames under a ``sys.setprofile``
counter and pins these host-independent quantities:

* Python-level calls into ``repro`` per frame, monitored and
  unmonitored, and their difference (what the monitor adds) -- as
  ceilings, 3% above what the code reaches on CPython <= 3.11 (3.12
  inlines comprehensions and counts lower);
* how often ``repro.perception`` enters numpy's Python layer per
  frame (a call into a function of numpy's package straight from a
  perception frame: ``np.unique``, ``np.flatnonzero``, the dispatcher
  of ``np.concatenate``, ``ndarray.min`` via ``_methods.py``...), the
  per-call overhead that outweighs the arithmetic on ~55-point clouds;
* the *exact* number of events ``Simulator.run`` fires, so a cheaper
  frame can only come from cheaper events, never from different ones;
* what a hot event may not cost: a ``Simulator._pop`` call per fired
  event on the ``run(until=...)`` route the stack takes, or a formatted
  label (only ``ScheduledEvent.__repr__`` ever reads one);
* that tracing off is free: with no span recorder and no trace prefix
  the run makes no call into ``repro.tracing`` at all;
* what a fault campaign adds on top: one ``loss_burst`` scenario on the
  same clouds pays for a monitored run, its ground truth, degradation
  ladder and oracles, one columnar telemetry replay -- and no tracer.

The fleet path has the same kind of guard: a clean 4 x 30 gateway
episode pins what a frame may cost between the wire and the store --
one header decode and one row parse by the codec's C scanner, no
record object, no queue hop -- and that the store is applied once per
gateway step, not once per frame.  Its frame count covers the stdlib
too: calls into ``json`` (none: ``repro.schema`` builds its C encoders
and scanner once and the per-line sites call them inline) and into
``enum``, each under a ceiling of its own.

Two layers off those paths keep a budget of their own: the budgeting
solvers (the exact branch-and-bound node count and the calls of the
three solves, on a 4-segment x 400-activation trace) and the control
plane's re-derivation (calls per record of ``BudgetResolver`` +
``ShadowValidator`` over a 3-vehicle x 256-activation window).
"""

import collections
import dataclasses
import enum
import json
import os
import sys

import numpy as np
import pytest

import repro
from repro import schema
from repro.adaptive import BudgetEpoch, BudgetResolver, ShadowValidator
from repro.adaptive.chaos import fleet_chain
from repro.budgeting import (
    BudgetingProblem,
    ChainTrace,
    SegmentTrace,
    solve_branch_and_bound,
    solve_greedy_propagated,
    solve_independent,
)
from repro.core import EventChain, MKConstraint
from repro.core.segments import local_segment, remote_segment
from repro.faults import CampaignConfig, FaultCampaign, default_scenarios
from repro.perception import PerceptionStack, StackConfig
from repro.perception.scenario import ScenarioConfig
from repro.sim.kernel import ScheduledEvent, Simulator
from repro.telemetry.batch import RecordBatch
from repro.telemetry.gateway.chaos import GatewayChaosScenario
from repro.telemetry.gateway.service import FleetGateway
from repro.telemetry.records import TelemetryRecord, segment_record
from repro.telemetry.service import TelemetryService
from repro.telemetry.store import ChainStateStore
from repro.telemetry.uplink import transport
from repro.telemetry.uplink.chaos import ChaosConfig
from repro.tracing.tracer import Tracer

FRAMES = 30

#: Calls per frame reached by this code on CPython 3.11.7: 608.7
#: monitored, 377.9 unmonitored, 230.8 added by the monitor (610.7 /
#: 379.9 while the lidar sweep had a ground-sweep helper and the boxes
#: a loop; 617.7 / 386.9 while every local DDS delivery drew a zero
#: jitter sample and the sink drew a render cost from a stream; 629.8 /
#: 396.6 / 233.2 while the kernel activated calendar buckets).
MONITORED_CEILING = 626
UNMONITORED_CEILING = 389
ADDED_CEILING = 240

#: Entries into numpy's Python layer from ``repro.perception`` per
#: monitored frame, on CPython 3.11.7 and numpy 2.4.6: 9.0, 3% above.
#: Four are ``np.random.default_rng``'s seed hashing (two sweeps), five
#: the dispatcher of ``np.concatenate`` (three in the cell probe, the
#: fusion, the box gather).  70.6 while the kernels called ``np.unique``,
#: ``np.flatnonzero``, ``np.array_equal``, ``np.append``, ``np.argsort``,
#: ``np.vstack`` and ``ndarray.min`` / ``max`` / ``all``.
NUMPY_ENTRY_CEILING = 9.27

#: Events fired over the 30 frames (27.67 / 18.17 per frame).
MONITORED_EVENTS = 830
UNMONITORED_EVENTS = 545

#: Labelled events per frame: link and DDS deliveries (3 + 3) plus the
#: odd PTP round and timer, 6.3 in all.  The compute slices, sleeps and
#: semaphore timeouts the scheduler schedules (18 per monitored frame)
#: carry none.
LABELLED_CEILING = 7

#: Calls per frame of one 60-frame ``loss_burst`` campaign scenario on
#: CPython 3.11: 686.0 (688.0 before the perception kernels' rewrite,
#: 688.2 while the service kept a record queue,
#: 695.4 with the zero jitter and render draws,
#: 709.1 while the kernel activated calendar buckets, 935.7 before the
#: campaign stopped arming trace points, replaying record by record and
#: summing the health window).
CAMPAIGN_FRAMES = 60
CAMPAIGN_CEILING = 706

#: Calls into ``repro`` of one clean 4 x 30 gateway episode (driver
#: built, run, verified) on CPython 3.11: 30.1k (30.2k while the
#: service kept a record queue, 30.7k while the load generator drew one
#: scalar per draw, 32.8k while a checkpoint re-serialised every key it
#: dirtied, 44.1k while every frame paid a parse per line, a record per
#: row and an apply of its own); the ceiling is 3% above 30,055.
FLEET_CEILING = 30_957
#: Calls into the stdlib ``json`` and ``enum`` modules over the same
#: episode: 0 and 261, 3% above (3,972 and 2,205 while every record
#: line built a C encoder, every parse ran ``json.loads`` and
#: ``to_wire`` read ``RecordKind.value``).
FLEET_JSON_CEILING = 0
FLEET_ENUM_CEILING = 268

#: Calls into ``repro`` of the independent, greedy and branch-and-bound
#: solves on CPython 3.11.  The (2,8) trace at B_seg = 100 is infeasible
#: for segment s2 alone, so every solver refuses before searching: 200
#: calls, 0 nodes.  Loosened to B_seg = 150, B_e2e = 310 the search
#: runs: branch-and-bound finds sum(d) = 309 after exactly 5272 nodes
#: where the greedy descent stops at 312 > B_e2e; 2,062,193 calls.
SOLVE_REFUSED_CEILING = 206
SOLVE_NODES = 5272
SOLVE_SEARCH_CEILING = 2_124_060

#: Calls per record of one BudgetResolver.resolve + epoch + one
#: ShadowValidator.validate over 2304 records on CPython 3.11: 8.06.
RESOLVE_CEILING = 8.30

_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_JSON = os.path.dirname(os.path.abspath(json.__file__)) + os.sep
_ENUM = os.path.abspath(enum.__file__)
_TRACING = _ROOT + "tracing" + os.sep
_PERCEPTION = _ROOT + "perception" + os.sep
_NUMPY = os.path.dirname(os.path.abspath(np.__file__)) + os.sep
_POP = Simulator._pop.__code__
_EVENT_INIT = ScheduledEvent.__init__.__code__

_SPARSE = ScenarioConfig(
    seed=1, ground_rings=2, points_per_ring=24, max_objects=1,
    points_per_object_mean=10,
)


def _count_calls(fn):
    """``fn()`` and the number of calls into ``repro`` it made."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_ROOT):
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


class _Run:
    """Counters of one profiled 30-frame run."""

    def __init__(self, monitoring: bool) -> None:
        stack = PerceptionStack(StackConfig(
            seed=1, monitoring=monitoring, trace_prefixes=(),
            scenario=_SPARSE,
        ))
        self.spans = stack.sim.spans
        self.tracing_active = stack.sim.tracing_active
        self.calls = self.pops = self.labelled = self.fired = 0
        self.tracing_calls = self.numpy_entries = 0
        run = Simulator.run

        def counting_run(sim, *args, **kwargs):
            fired = run(sim, *args, **kwargs)
            self.fired += fired
            return fired

        def profile(frame, event, _arg):
            if event != "call":
                return
            code = frame.f_code
            if not code.co_filename.startswith(_ROOT):
                if code.co_filename.startswith(_NUMPY) and \
                        frame.f_back.f_code.co_filename.startswith(_PERCEPTION):
                    self.numpy_entries += 1
                return
            self.calls += 1
            if code.co_filename.startswith(_TRACING):
                self.tracing_calls += 1
            if code is _POP:
                self.pops += 1
            elif code is _EVENT_INIT and frame.f_locals["label"]:
                self.labelled += 1

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(Simulator, "run", counting_run)
            sys.setprofile(profile)
            try:
                stack.run(n_frames=FRAMES)
            finally:
                sys.setprofile(None)
        self.per_frame = self.calls / FRAMES


@pytest.fixture(scope="module")
def runs():
    return _Run(monitoring=True), _Run(monitoring=False)


def test_calls_per_frame_under_ceiling(runs):
    monitored, unmonitored = runs
    assert monitored.per_frame <= MONITORED_CEILING
    assert unmonitored.per_frame <= UNMONITORED_CEILING


def test_perception_stays_below_numpys_python_layer(runs):
    monitored, _ = runs
    assert monitored.numpy_entries / FRAMES <= NUMPY_ENTRY_CEILING


def test_monitor_adds_calls_under_its_own_ceiling(runs):
    monitored, unmonitored = runs
    assert monitored.per_frame - unmonitored.per_frame <= ADDED_CEILING


def test_cheaper_events_not_different_events(runs):
    monitored, unmonitored = runs
    assert monitored.fired == MONITORED_EVENTS
    assert unmonitored.fired == UNMONITORED_EVENTS


def test_bounded_run_pays_no_pop_call_per_event(runs):
    # PerceptionStack.run drives sim.run(until=horizon) with no span
    # recorder: that route is the inlined walk, not a pop() per event.
    for run in runs:
        assert run.pops * 10 < run.fired


def test_hot_schedule_sites_format_no_label(runs):
    for run in runs:
        assert run.labelled / FRAMES <= LABELLED_CEILING


def test_tracing_off_is_free(runs):
    # What the disabled-tracing contract costs is counted, not timed:
    # with no span recorder and no trace prefix the kernel stays on its
    # one production loop (the generic ``pop(until)`` loop that restores
    # span contexts is never entered) and nothing under repro.tracing
    # runs -- no hook, no span context capture, no field dict.
    for run in runs:
        assert run.spans is None and not run.tracing_active
        assert run.tracing_calls == 0
        assert run.pops == 0


def test_campaign_frame_pays_for_its_verdict_only():
    # The stack is built inside run_scenario, so the one call into
    # repro.tracing a campaign may make is constructing the stack's
    # Tracer, which with no prefix registers no hook.
    scenario = next(s for s in default_scenarios() if s.name == "loss_burst")
    scenario = dataclasses.replace(
        scenario, config_overrides={"scenario": _SPARSE}
    )
    campaign = FaultCampaign(
        [scenario], CampaignConfig(n_frames=CAMPAIGN_FRAMES, seed=1)
    )
    ingest_batch = TelemetryService.ingest_batch.__code__
    counts = {"calls": 0, "tracing": 0, "ingest_batch": 0}
    tracer_init = Tracer.__init__.__code__

    def profile(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if not code.co_filename.startswith(_ROOT):
            return
        counts["calls"] += 1
        if code is ingest_batch:
            counts["ingest_batch"] += 1
        elif code.co_filename.startswith(_TRACING) and code is not tracer_init:
            counts["tracing"] += 1

    sys.setprofile(profile)
    try:
        result = campaign.run_scenario(scenario)
    finally:
        sys.setprofile(None)
    assert result.passed and result.telemetry_records > 0
    assert counts["tracing"] == 0
    assert counts["ingest_batch"] == 1
    assert counts["calls"] / CAMPAIGN_FRAMES <= CAMPAIGN_CEILING


def test_fleet_frame_pays_one_parse_and_a_step_pays_one_apply(tmp_path):
    watched = {
        TelemetryRecord.from_wire.__code__: "from_wire",
        TelemetryRecord.__init__.__code__: "records",
        ChainStateStore.apply_batch.__code__: "apply_batch",
        FleetGateway.step.__code__: "steps",
        transport.decode_frame_header.__code__: "headers",
    }
    counts = collections.Counter()
    to_records = RecordBatch.to_records.__code__
    scan = schema.c_scan_json

    def counted_scan(text, index):
        # The codec's parse sites call the C scanner, which no profile
        # event sees; counted here, in a frame outside ``repro``.
        counts["parses"] += 1
        return scan(text, index)

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "return" and code is to_records:
            # A materialized batch builds one record per row it returns.
            counts["records"] += len(arg)
        if event != "call":
            return
        if code in watched:
            counts[watched[code]] += 1
        filename = code.co_filename
        if filename.startswith(_ROOT):
            counts["calls"] += 1
        elif filename.startswith(_JSON):
            counts["json"] += 1
        elif filename == _ENUM:
            counts["enum"] += 1

    config = ChaosConfig(vehicles=4, frames=30, protocol="windowed")
    with pytest.MonkeyPatch.context() as monkeypatch:
        for module in list(sys.modules.values()):
            if getattr(module, "c_scan_json", None) is scan:
                monkeypatch.setattr(module, "c_scan_json", counted_scan)
        sys.setprofile(profile)
        try:
            driver = GatewayChaosScenario(name="clean").make_driver(
                config, tmp_path
            )
            result = driver.run()
        finally:
            sys.setprofile(None)
    assert result.ok, [c for c in result.checks if not c["ok"]]

    frames = driver.gateway.frames_queued
    applied = driver.ingestor.service.store.applied
    checkpoints = result.ingest["checkpoints"]
    assert frames == 120 and checkpoints == 30 and applied > 900
    # Records built (``TelemetryRecord.__init__`` calls plus the rows of
    # every ``RecordBatch.to_records``): only the ones the load
    # generator hands the vehicles, one per applied row; nothing
    # crosses a queue.
    assert counts["records"] == applied
    assert counts["from_wire"] == 0
    assert counts["headers"] == frames
    # + 2: the fault-free reference store and the cold-recovery check.
    assert counts["apply_batch"] <= counts["steps"] + checkpoints + 2
    # Header + rows per frame, one per hello and downlink envelope; the
    # cold recovery reads the journal header, its checkpoint entries
    # and, in one piece, the record lines it redoes.
    envelopes = driver.gateway.hellos + result.channels["down"]["delivered"]
    assert counts["parses"] <= (
        2 * frames + envelopes + 2 + driver.last_recovery.fragments_read
    )
    assert counts["calls"] <= FLEET_CEILING
    # No JSONEncoder built, no json.loads run: the codec's C objects.
    assert counts["json"] <= FLEET_JSON_CEILING
    assert counts["enum"] <= FLEET_ENUM_CEILING


def _budgeting_problem(budget_seg, budget_e2e):
    """A 4-segment remote/local chain with 400 lognormal activations."""
    rng = np.random.default_rng(11)
    segments = []
    for i in range(4):
        if i % 2 == 0:
            segments.append(remote_segment(f"s{i}", f"t{i}", "ecuA", "ecuB"))
        else:
            segments.append(local_segment(f"s{i}", "ecuB", f"t{i-1}", f"t{i}"))
    for earlier, later in zip(segments, segments[1:]):
        later.start = earlier.end
    chain = EventChain(
        name="solve", segments=segments, period=100, budget_e2e=budget_e2e,
        budget_seg=budget_seg, mk=MKConstraint(2, 8),
    )
    trace = ChainTrace("solve")
    for seg in segments:
        base = rng.integers(20, 60)
        lats = np.clip(
            rng.lognormal(np.log(base), 0.4, size=400), 5, 400
        ).astype(int)
        trace.add(SegmentTrace(seg.name, [int(v) for v in lats]))
    return BudgetingProblem(chain, trace)


def _solve_all(problem):
    return [
        solve(problem) for solve in (
            solve_independent, solve_greedy_propagated, solve_branch_and_bound
        )
    ]


def test_budgeting_solvers_refuse_an_infeasible_segment_before_searching():
    problem = _budgeting_problem(budget_seg=100, budget_e2e=260)
    results, calls = _count_calls(lambda: _solve_all(problem))
    assert [r.schedulable for r in results] == [False, False, False]
    assert "s2 infeasible even alone" in results[2].reason
    assert results[2].nodes_explored == 0
    assert calls <= SOLVE_REFUSED_CEILING


def test_branch_and_bound_explores_a_pinned_number_of_nodes():
    problem = _budgeting_problem(budget_seg=150, budget_e2e=310)
    (independent, greedy, exact), calls = _count_calls(
        lambda: _solve_all(problem)
    )
    assert (independent.schedulable, independent.total) == (True, 289)
    assert (greedy.schedulable, greedy.total) == (False, 312)
    assert (exact.schedulable, exact.total) == (True, 309)
    assert exact.nodes_explored == SOLVE_NODES
    assert calls <= SOLVE_SEARCH_CEILING


def test_budget_resolve_calls_per_record():
    chain = fleet_chain()
    rng = np.random.default_rng(13)
    medians = {"seg0": 4_000_000, "seg1": 6_000_000, "seg2": 8_000_000}
    records = []
    for vehicle in ("veh00", "veh01", "veh02"):
        for activation in range(256):
            for segment, median in medians.items():
                records.append(segment_record(
                    vehicle, chain.name, segment, activation,
                    int(median * rng.lognormal(0.0, 0.18)), "ok",
                    (activation + 1) * chain.period, len(records),
                ))
    baseline = BudgetEpoch(epoch_id=0, budgets={
        chain.name: {seg.name: int(seg.d_mon) for seg in chain.segments},
    })

    def resolve_and_validate():
        outcome = BudgetResolver({chain.name: chain}).resolve(records)
        assert outcome.ok, "resolver failed on a clean window"
        candidate = outcome.epoch(epoch_id=1, parent_id=0)
        return ShadowValidator({chain.name: chain}).validate(
            records, candidate, baseline
        )

    verdict, calls = _count_calls(resolve_and_validate)
    assert verdict.accepted and verdict.activations == 3 * 256
    assert calls / len(records) <= RESOLVE_CEILING
