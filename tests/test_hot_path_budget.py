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
gateway step, not once per frame.  The store's fold itself, on the
same ~32-rows-a-step shape, may make no Python call for a segment row
and one (``MKAutomaton.record``) for a chain row once their key exists.
The episode's count covers the stdlib too: calls into ``json`` (none: ``repro.schema`` builds its C encoders
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
import gc
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
from repro.telemetry.gateway.chaos import GatewayChaosScenario
from repro.telemetry.gateway.service import FleetGateway
from repro.telemetry.loadgen import FleetConfig, FleetLoadGenerator
from repro.telemetry.service import TelemetryService
from repro.telemetry.store import ApplyOutcome, ChainStateStore
from repro.telemetry.uplink import transport
from repro.telemetry.uplink.chaos import ChaosConfig
from repro.telemetry.uplink.ingest import UplinkIngestor
from repro.telemetry.uplink.wal import RecordLog
from repro.tracing.tracer import Tracer

FRAMES = 30

#: Calls per frame reached by this code on CPython 3.11.7: 525.4
#: monitored, 325.2 unmonitored, 200.1 added by the monitor (537.4 /
#: 337.2 while every DDS delivery matched reader and writer QoS and
#: stored its sample through a helper; 549.4 / 343.2 / 206.1 while
#: every DDS delivery read the ECU clock for a lifespan no stack reader
#: sets and the sync monitor read it twice per sample; 608.7 / 377.9 / 230.8 while every wake ran a full scheduling
#: pass and every compute slice allocated its completion event; 610.7 /
#: 379.9 while the lidar sweep had a ground-sweep helper and the boxes a
#: loop; 617.7 / 386.9 while every local DDS delivery drew a zero jitter
#: sample and the sink drew a render cost from a stream; 629.8 / 396.6 /
#: 233.2 while the kernel activated calendar buckets).
MONITORED_CEILING = 541
UNMONITORED_CEILING = 335
ADDED_CEILING = 207

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

#: Events allocated (``ScheduledEvent.__init__`` calls) per monitored
#: frame: 6.53, 3% above (24.5 while every compute slice allocated its
#: completion event; each core now re-arms one handle).
EVENT_ALLOC_CEILING = 6.73

#: Labelled events per frame: link and DDS deliveries (3 + 3) plus the
#: odd PTP round and timer, 6.3 in all.  The compute slices, sleeps and
#: semaphore timeouts the scheduler schedules (18 per monitored frame)
#: carry none.
LABELLED_CEILING = 7

#: Calls per frame of one 60-frame ``loss_burst`` campaign scenario on
#: CPython 3.11: 611.3 (623.6 while every DDS delivery matched QoS,
#: 636 earlier, 689.3 before the scheduler's direct wake path,
#: 686.0 while the store ran each chain's verdicts
#: through a numpy-vectorized automaton step instead of one
#: ``MKAutomaton.record`` call per verdict, 688.0 before the perception
#: kernels' rewrite,
#: 688.2 while the service kept a record queue,
#: 695.4 with the zero jitter and render draws,
#: 709.1 while the kernel activated calendar buckets, 935.7 before the
#: campaign stopped arming trace points, replaying record by record and
#: summing the health window).  The ceiling is 3% above.
CAMPAIGN_FRAMES = 60
CAMPAIGN_CEILING = 630
#: Calls into the stdlib ``enum`` module over the same scenario: 18-24
#: (the count depends on what earlier tests compiled), 3% above 24
#: (2,832 while the replay built a chain report to read its misses,
#: hashing a member per record, and read ``Outcome.value`` per row).
CAMPAIGN_ENUM_CEILING = 25

#: Calls into ``repro`` of one clean 4 x 30 gateway episode (driver
#: built, run, verified) on CPython 3.11: 16.0k (27.7k while the
#: vehicles spooled a record per generated row, encoded through
#: ``to_wire``, the ledger hooks walked records, the dedup window swept
#: after every admit, an in-order frame's rows waited in ``held`` and
#: the journal took a write per line; 30.1k while the store regrouped
#: every step's rows into columns and per-key groups, 30.2k while the
#: service kept a record queue, 30.7k while the load generator drew one
#: scalar per draw, 32.8k while a checkpoint re-serialised every key it
#: dirtied, 44.1k while every frame paid a parse per line, a record per
#: row and an apply of its own); the ceiling is 3% above 15,985.
FLEET_CEILING = 16_465
#: Calls into the stdlib ``json`` and ``enum`` modules over the same
#: episode: 0 and 25-31 (the count depends on what earlier tests
#: imported), 3% above 31 (261 while the overload ladder hashed a
#: ``GatewayMode`` per lookup and compared modes by ``.value``; 3,972
#: and 2,205 while every record line built a C encoder, every parse ran
#: ``json.loads`` and ``to_wire`` read the record-kind enum's ``.value``).
FLEET_JSON_CEILING = 0
FLEET_ENUM_CEILING = 32
#: Rows a gateway step hands the store on the clean 4 x 30 episode: ~32.
FLEET_STEP_ROWS = 32

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
        self.events_made = 0
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
            elif code is _EVENT_INIT:
                self.events_made += 1
                if frame.f_locals["label"]:
                    self.labelled += 1

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(Simulator, "run", counting_run)
            # Garbage earlier tests leave in reference cycles (suspended
            # thread generators among it) is finalized by whichever
            # collection runs next; inside the window its calls would
            # count (whole-suite runs read up to ~7 calls a frame more).
            gc.collect()
            gc.disable()
            sys.setprofile(profile)
            try:
                stack.run(n_frames=FRAMES)
            finally:
                sys.setprofile(None)
                gc.enable()
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


def test_a_compute_slice_allocates_no_event(runs):
    monitored, _ = runs
    assert monitored.events_made / FRAMES <= EVENT_ALLOC_CEILING


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
    counts = {"calls": 0, "tracing": 0, "ingest_batch": 0, "enum": 0}
    tracer_init = Tracer.__init__.__code__

    def profile(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if not code.co_filename.startswith(_ROOT):
            if code.co_filename == _ENUM:
                counts["enum"] += 1
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
    assert counts["enum"] <= CAMPAIGN_ENUM_CEILING


def test_fleet_frame_pays_one_parse_and_a_step_pays_one_apply(tmp_path):
    watched = {
        ApplyOutcome.__init__.__code__: "outcomes",
        ChainStateStore.apply_batch.__code__: "apply_batch",
        FleetGateway.step.__code__: "steps",
        transport.decode_frame_header.__code__: "headers",
        RecordLog.append_lines.__code__: "journal_writes",
    }
    fold = ChainStateStore.apply_batch.__code__
    ingest = UplinkIngestor.ingest_frame.__code__
    fresh_before = {}
    counts = collections.Counter()
    scan = schema.c_scan_json

    def counted_scan(text, index):
        # The codec's parse sites call the C scanner, which no profile
        # event sees; counted here, in a frame outside ``repro``.
        counts["parses"] += 1
        return scan(text, index)

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "return":
            if code is fold:
                counts["flagged"] += len(arg)
            elif code is ingest:
                ingestor = frame.f_locals["self"]
                if ingestor.records_fresh > fresh_before.pop(frame):
                    counts["fresh_frames"] += 1
            return
        if event != "call":
            return
        if code is ingest:
            fresh_before[frame] = frame.f_locals["self"].records_fresh
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
    # Outcomes built: only for the rows the folds flag (none on a clean
    # episode).  The vehicles spool the load generator's rows and the
    # reference folds them; the rows a frame decodes reach the store as
    # rows, and nothing crosses a queue.
    assert counts["outcomes"] == counts["flagged"] == 0
    assert counts["headers"] == frames
    # One journal write of record lines per frame that brings fresh rows.
    assert counts["journal_writes"] == counts["fresh_frames"] > 0
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


def test_fold_pays_no_call_per_row_past_a_keys_first_touch():
    """The store fold on the live fleet shape (~32 rows a step over
    ~32 keys): past a key's first touch, a segment row makes no Python
    call and a chain row one, ``MKAutomaton.record``; a flagged row adds
    its outcome and, for a seq gap, ``note_missing``."""
    fleet = FleetConfig(vehicles=4, frames=30)
    rows = FleetLoadGenerator(fleet).batch()
    store = ChainStateStore(fleet.store_config())
    fold = ChainStateStore.apply_batch.__code__
    calls = collections.Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_back.f_code is fold:
            calls[frame.f_code.co_name] += 1

    flagged = []
    sys.setprofile(profile)
    try:
        for start in range(0, len(rows), FLEET_STEP_ROWS):
            flagged += store.apply_batch(rows[start:start + FLEET_STEP_ROWS])
    finally:
        sys.setprofile(None)
    chain_rows = sum(row[0] == "chain" for row in rows)
    segment_keys = sum(len(state.segments) for state in store._chains.values())
    gaps = sum(1 for outcome in flagged if outcome.seq_gap)
    assert 0 < gaps < len(flagged) < len(rows) // 10
    first_touch = {
        "_segment_state": segment_keys,
        "chain_state": 0,  # a chain's segments came first
    }
    per_row = {
        "record": chain_rows,  # MKAutomaton.record
        # SourceState on a source's first touch, ApplyOutcome per flag.
        "__init__": len(store.sources) + len(flagged),
        "note_missing": gaps,
    }
    assert dict(calls) == {
        name: count for name, count in {**first_touch, **per_row}.items()
        if count
    }


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
                records.append((
                    "segment", vehicle, chain.name, segment, activation,
                    int(median * rng.lognormal(0.0, 0.18)), "ok", "",
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
