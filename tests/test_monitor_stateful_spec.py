"""Stateful executable spec of the local monitor (paper Algorithm 2).

The local monitor is one decision core (``repro.ipc.monitor``) run by
two drivers, and one machine drives both over two local segments and
nothing else.  Hypothesis interleaves start events, end events and the
passing of time; any started activation may end at any time.  The spec
says what the monitor must have made of them:

* every started activation gets exactly one verdict;
* an end event posted before ``start_ts + d_mon`` makes it OK, with the
  latency between the two stamps; no end event by then, or by the time
  the monitor reacted, makes it exactly one temporal exception (an end
  event posted while the monitor was already reacting may go either
  way -- the paper's last-moment check);
* at quiescence nothing is pending and no live deadline is left.

:class:`LocalMonitorSpec` drives the simulated :class:`MonitorThread` on
a bare ECU.  It charges CPU costs between decisions, so events posted
while it computes land between its buffer drains.  It also runs
Algorithm 2: the exception is RECOVERED iff the handler recovers at the
segment's current miss pressure, MISS otherwise, and the monitor enters
the handler no earlier than the deadline and no later than the CPU work
it had ahead of it.

:class:`IpcMonitorSpec` drives the real :class:`IpcMonitor` with its
thread not started: the machine stamps records on a synthetic clock,
pushes them into the segments' ring buffers and calls the per-wake
method as ``_run`` does, once per start posted (the semaphore) and
whenever a deadline passes.  While ``concurrent_posts`` is on, posts
land just after the monitor's next buffer drain, as a producer racing
the monitor thread does.

The two tests at the bottom pin, one per driver, an end overtaking its
own start: start n+1 posted after the start drain, end n+1 before the
end drain.
"""

import time

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.core import (
    ChainRuntime, EventChain, LocalSegmentRuntime, MKConstraint,
    MonitorThread, Outcome,
)
from repro.core.exceptions import PropagateAlways, RecoverUpTo
from repro.core.local_monitor import (
    END_EVENT_COST_NS,
    EXCEPTION_DETECT_COST_NS,
    START_EVENT_COST_NS,
)
from repro.core.segments import local_segment
from repro.dds.topic import Sample, Topic
from repro.ipc import IpcMonitor, IpcSegment, SpscRingBuffer
from repro.ipc.ring_buffer import KIND_END, KIND_START
from repro.sim import Ecu, Simulator, msec, usec

from _reference.miss_window import MissWindow

#: What every recovering handler charges the monitor thread.
HANDLER_COST = RecoverUpTo.cost_ns
TOPIC = Topic("t")

deadlines = st.integers(usec(50), usec(2000))
mk_constraints = st.integers(1, 5).flatmap(
    lambda k: st.integers(0, k).map(lambda m: MKConstraint(m, k))
)
segment_setups = st.tuples(
    deadlines,
    mk_constraints,
    # PropagateAlways (None), or recover up to m misses except for every
    # j-th activation (0: no exception), so that miss pressure builds.
    st.none() | st.sampled_from([0, 2, 3]),
)


class _RecoverUpToExcept(RecoverUpTo):
    """RecoverUpTo that also declines every *decline_every*-th activation."""

    def __init__(self, max_misses, decline_every):
        super().__init__(max_misses, lambda context: "substitute")
        self.decline_every = decline_every

    def declines(self, activation):
        return bool(self.decline_every) and activation % self.decline_every == 0

    def user_exception(self, context):
        if self.declines(context.exception.activation):
            return None
        return super().user_exception(context)


class _CountingRuntime(ChainRuntime):
    """A ChainRuntime that also keeps every report, in order."""

    def __init__(self, chain):
        super().__init__(chain)
        self.log = []

    def report(self, segment_name, activation, outcome, latency=None,
               detection_latency=None):
        super().report(segment_name, activation, outcome, latency,
                       detection_latency)
        self.log.append((activation, outcome, latency, detection_latency))


class _RecoverySink:
    """Just enough of a DataWriter to be a segment's end endpoint."""

    def __init__(self):
        self.publish_filters = []
        self.on_publish_hooks = []
        self.recovered = []

    def write(self, data, recovered=False):
        assert recovered
        self.recovered.append(data)


def _sample(n):
    return Sample(topic=TOPIC, data=n, source_timestamp=0, sequence_number=n)


def _ring(capacity=256):
    return SpscRingBuffer(
        bytearray(SpscRingBuffer.required_size(capacity)), capacity,
        initialize=True,
    )


class _MonitorSpec(RuleBasedStateMachine):
    """The world and the verdict spec; a subclass drives one monitor."""

    def _setup(self, d_mons):
        self.d_mons = d_mons
        #: per segment: activation -> stamp of its start / end event
        self.started = [{}, {}]
        self.ended = [{}, {}]

    # -- the world -----------------------------------------------------
    @rule(seg=st.integers(0, 1))
    def start(self, seg):
        self._post_start(seg, len(self.started[seg]))

    @rule(seg=st.integers(0, 1), pick=st.integers(0, 1 << 16))
    def end(self, seg, pick):
        endable = [n for n in self.started[seg] if n not in self.ended[seg]]
        if endable:
            self._post_end(seg, endable[pick % len(endable)])

    @rule(dt=st.sampled_from([1, usec(1), usec(7), usec(60), usec(900)]))
    def advance(self, dt):
        self._advance(dt)

    # -- the spec ------------------------------------------------------
    def _check_verdicts(self, seg, ok, raised):
        """*ok*: ``(n, latency)`` per OK verdict of segment *seg*;
        *raised*: ``(n, detection latency)`` per temporal exception."""
        started, ended = self.started[seg], self.ended[seg]
        assert sorted(n for n, _ in ok + raised) == sorted(started), (
            "every activation exactly one verdict"
        )
        for n, latency in ok:
            assert latency == ended[n] - started[n]
        for n, detection in raised:
            # No end event before the deadline, nor when it reacted.
            end_ts = ended.get(n)
            assert end_ts is None or end_ts >= started[n] + self.d_mons[seg], (
                "timely end event flagged"
            )
            assert detection >= 0


class LocalMonitorSpec(_MonitorSpec):
    """The simulated driver: :class:`MonitorThread` on a bare ECU."""

    @initialize(setups=st.tuples(segment_setups, segment_setups))
    def build(self, setups):
        self._setup([d_mon for d_mon, _mk, _decline_every in setups])
        self.sim = Simulator(seed=1)
        self.ecu = Ecu(self.sim, "ecu", n_cores=1)
        self.monitor = MonitorThread(self.ecu)
        self.runtimes, self.chains, self.sinks = [], [], []
        self.setups = setups
        for i, (d_mon, mk, decline_every) in enumerate(setups):
            segment = local_segment(f"s{i}", "ecu", "in", "out", d_mon=d_mon)
            handler = (
                PropagateAlways() if decline_every is None
                else _RecoverUpToExcept(mk.m, decline_every)
            )
            runtime = LocalSegmentRuntime(
                segment, handler=handler, mk=mk,
                activation_fn=lambda sample: sample.data,
            )
            sink = _RecoverySink()
            runtime.attach_end_writer(sink)
            chain = _CountingRuntime(EventChain(
                name=f"c{i}", segments=[segment], period=d_mon,
                budget_e2e=d_mon, mk=mk,
            ))
            runtime.reporters.append(chain)
            self.monitor.add_segment(runtime)
            self.runtimes.append(runtime)
            self.chains.append(chain)
            self.sinks.append(sink)

    def _post_start(self, seg, n):
        self.started[seg][n] = self.sim.now
        self.runtimes[seg]._on_start_sample(_sample(n))

    def _post_end(self, seg, n):
        self.ended[seg][n] = self.sim.now
        self.runtimes[seg]._on_end_sample(_sample(n))

    def _advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    def teardown(self):
        if not hasattr(self, "sim"):
            return
        # Quiescence: past every deadline, with one last wake-up so
        # buffered end events (which never notify) are consumed.
        self.sim.run(until=self.sim.now + usec(5000))
        stamps = sorted(
            [(ts, START_EVENT_COST_NS)
             for s in self.started for ts in s.values()]
            + [(ts, END_EVENT_COST_NS) for e in self.ended for ts in e.values()]
            + [(exc.raised_at, EXCEPTION_DETECT_COST_NS + HANDLER_COST)
               for r in self.runtimes for exc in r.exceptions]
        )
        for seg, runtime in enumerate(self.runtimes):
            _d_mon, mk, _decline_every = self.setups[seg]
            handler = runtime.handler
            chain = self.chains[seg]
            self._check_verdicts(
                seg,
                [(n, latency) for n, outcome, latency, _ in chain.log
                 if outcome is Outcome.OK],
                [(n, detection) for n, outcome, _, detection in chain.log
                 if outcome is not Outcome.OK],
            )
            raised = {exc.activation: exc for exc in runtime.exceptions}
            assert len(raised) == len(runtime.exceptions)
            window = MissWindow(mk)
            for n, outcome, _latency, detection in chain.log:
                if outcome is Outcome.OK:
                    window.record(False)
                    continue
                exc = raised[n]
                assert exc.deadline == self.started[seg][n] + self.d_mons[seg]
                assert detection == exc.detection_latency
                # The monitor is the only thread: from the deadline on
                # it is busy with work posted by the time it reacts.
                assert detection <= sum(
                    cost for ts, cost in stamps if ts <= exc.raised_at
                )
                recover = (
                    isinstance(handler, RecoverUpTo)
                    and not handler.declines(n)
                    and window.misses_in_window + 1 <= mk.m
                )
                assert outcome is (
                    Outcome.RECOVERED if recover else Outcome.MISS
                )
                window.record(not recover)
            assert len(self.sinks[seg].recovered) == sum(
                outcome is Outcome.RECOVERED for _n, outcome, *_ in chain.log
            )
            assert runtime.pending == {}
            # The production bit-packed window saw the spec's stream.
            assert (
                runtime.window.total,
                runtime.window.misses_in_window,
                runtime.window.violations,
            ) == (window.total, window.misses_in_window, window.violations)
        assert self.monitor.core.next_deadline is None


class IpcMonitorSpec(_MonitorSpec):
    """The real driver: :class:`IpcMonitor` woken on a synthetic clock."""

    @initialize(d_mons=st.tuples(deadlines, deadlines))
    def build(self, d_mons):
        self._setup(d_mons)
        self.now = 0
        self.segments = [
            IpcSegment(f"s{i}", d_mon, _ring(), _ring())
            for i, d_mon in enumerate(d_mons)
        ]
        #: per segment: (n, late_ns) per exception, (n, latency) per OK
        self.raised = [[], []]
        self.matched = [[], []]
        self.monitor = IpcMonitor(self.segments, on_exception=self._raised)
        for seg, lane in enumerate(self.monitor.core.lanes):
            lane.on_end = self._observed(seg, lane.on_end)
        for segment in self.segments:
            for buffer in (segment.start_buffer, segment.end_buffer):
                buffer.drain = self._landing_after(buffer.drain)
        self.semaphore = 0
        self.concurrent = False
        self.in_flight = []

    def _raised(self, name, n, late_ns):
        self.raised[int(name[1:])].append((n, late_ns))

    def _observed(self, seg, on_end):
        def observe(n, end_ts, start):
            if start is not None:
                self.matched[seg].append((n, end_ts - start[2]))
            on_end(n, end_ts, start)
        return observe

    def _landing_after(self, drain):
        def drain_then_land():
            records = drain()
            self._land()
            return records
        return drain_then_land

    @rule(on=st.booleans())
    def concurrent_posts(self, on):
        self.concurrent = on
        if not on:
            self._land()

    def _post_start(self, seg, n):
        self.started[seg][n] = None
        self._post(seg, n, KIND_START)

    def _post_end(self, seg, n):
        self.ended[seg][n] = None
        self._post(seg, n, KIND_END)

    def _post(self, seg, n, kind):
        self.in_flight.append((seg, n, kind))
        if not self.concurrent:
            self._land()

    def _land(self):
        posts, self.in_flight = self.in_flight, []
        for seg, n, kind in posts:
            segment = self.segments[seg]
            if kind == KIND_START:
                assert segment.start_buffer.push(KIND_START, n, self.now)
                self.started[seg][n] = self.now
                self.semaphore += 1
            else:
                assert segment.end_buffer.push(KIND_END, n, self.now)
                self.ended[seg][n] = self.now

    def _advance(self, dt):
        self._run_until(self.now + dt)

    def _run_until(self, target):
        """Wake the monitor as ``_run`` would up to *target*: once per
        start posted, and at every deadline passed."""
        while True:
            if self.semaphore:
                self.semaphore -= 1
            else:
                deadline = self.monitor.core.next_deadline
                if deadline is None or deadline > target:
                    break
                self.now = deadline
            self.monitor.wake(self.now)
        self.now = target

    def teardown(self):
        if not hasattr(self, "monitor"):
            return
        self.concurrent = False
        self._land()
        self._run_until(self.now + max(self.d_mons))
        # One last wake-up: buffered end events never notify.
        self.monitor.wake(self.now)
        raised = set()
        for seg in (0, 1):
            self._check_verdicts(seg, self.matched[seg], self.raised[seg])
            raised.update((seg, n) for n, _late in self.raised[seg])
        stats = self.monitor.stats
        # Only the end events of activations already raised are stale.
        assert stats.stale_end_events == sum(
            (seg, n) in raised for seg in (0, 1) for n in self.ended[seg]
        )
        assert stats.exceptions == len(raised)
        assert all(lane.pending == {} for lane in self.monitor.core.lanes)
        assert self.monitor.core.next_deadline is None


TestLocalMonitorSpec = LocalMonitorSpec.TestCase
TestLocalMonitorSpec.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestIpcMonitorSpec = IpcMonitorSpec.TestCase
TestIpcMonitorSpec.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


def test_end_overtaking_its_start_is_matched_simulated():
    """The monitor computes on start 0 while start 1 and end 1 are
    posted, then drains both end events.  End 1 must be matched: counted
    stale, it left activation 1 to raise at 75 us for its 50 us deadline
    although it ended when it started."""
    spec = LocalMonitorSpec()
    spec.build(setups=((usec(50), MKConstraint(1, 2), 0),) * 2)
    runtime = spec.runtimes[0]
    for n in (0, 1):
        runtime._on_start_sample(_sample(n))
        runtime._on_end_sample(_sample(n))
    spec.sim.run(until=usec(200))
    assert runtime.exceptions == []
    assert runtime.stale_end_events == 0
    assert runtime.latencies == [(0, 0, Outcome.OK), (1, 0, Outcome.OK)]


def test_end_overtaking_its_start_is_matched_real():
    """Start 1 and end 1 are posted while the real monitor's first start
    drain returns.  End 1 must be matched: counted stale, it left
    ``on_exception('s', 1, ...)`` to fire once the deadline passed."""
    segment = IpcSegment("s", msec(20), _ring(), _ring())
    raised = []
    monitor = IpcMonitor([segment], on_exception=lambda *args: raised.append(args))
    drain = segment.start_buffer.drain

    def drain_then_post():
        records = drain()
        segment.start_buffer.drain = drain
        segment.post_start(1, monitor.semaphore)
        segment.post_end(1)
        return records

    segment.start_buffer.drain = drain_then_post
    segment.post_start(0, monitor.semaphore)
    segment.post_end(0)
    with monitor:
        time.sleep(0.1)
    assert raised == []
    assert (monitor.stats.completions, monitor.stats.stale_end_events) == (2, 0)
