"""Stateful executable spec of the local monitor (paper Algorithm 2).

One :class:`MonitorThread` supervises two local segments on a bare ECU
(no DDS, no other thread).  Hypothesis interleaves start events, end
events and the passing of time; the spec at the bottom of the machine
says what the monitor must have made of them:

* every started activation is reported to its :class:`ChainRuntime`
  exactly once;
* an end event posted before ``start_ts + d_mon`` makes it OK, with the
  latency between the two stamps; no end event by then, or by the time
  the monitor reacted, makes it exactly one temporal exception (an end
  event posted while the monitor was already reacting may go either
  way -- the paper's last-moment check);
* the exception is RECOVERED iff the handler recovers at the segment's
  current miss pressure (Algorithm 2), MISS otherwise;
* the monitor enters the handler no earlier than the deadline and no
  later than the CPU work it had ahead of it;
* at quiescence nothing is pending and the timeout queue holds no live
  entry.

End events are generated only for activations whose start event the
monitor has got round to (a segment cannot finish faster than the
monitor's own start-event cost).  Without that rule the machine finds a
sequence the fixed drain order mishandles -- start n+1 posted while the
monitor computes on start n, end n+1 posted inside that window: the end
event is consumed as stale before its start is armed, and the
activation later raises a false exception (ROADMAP 3(a)).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, precondition, rule,
)

from repro.core import (
    ChainRuntime, EventChain, LocalSegmentRuntime, MKConstraint,
    MonitorThread, Outcome,
)
from repro.core.exceptions import PropagateAlways, RecoverUpTo
from repro.core.local_monitor import MonitorCosts
from repro.core.segments import local_segment
from repro.dds.topic import Sample, Topic
from repro.sim import Ecu, Simulator, usec

from _reference.miss_window import MissWindow

COSTS = MonitorCosts()
HANDLER_COST = usec(20)
TOPIC = Topic("t")

mk_constraints = st.integers(1, 5).flatmap(
    lambda k: st.integers(0, k).map(lambda m: MKConstraint(m, k))
)
segment_setups = st.tuples(
    st.integers(usec(50), usec(2000)),  # d_mon
    mk_constraints,
    # PropagateAlways (None), or recover up to m misses except for every
    # j-th activation (0: no exception), so that miss pressure builds.
    st.none() | st.sampled_from([0, 2, 3]),
)


class _RecoverUpToExcept(RecoverUpTo):
    """RecoverUpTo that also declines every *decline_every*-th activation."""

    def __init__(self, max_misses, decline_every):
        super().__init__(max_misses, lambda context: "substitute", HANDLER_COST)
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


class LocalMonitorSpec(RuleBasedStateMachine):
    @initialize(setups=st.tuples(segment_setups, segment_setups))
    def build(self, setups):
        self.sim = Simulator(seed=1)
        self.ecu = Ecu(self.sim, "ecu", n_cores=1)
        self.monitor = MonitorThread(self.ecu, costs=COSTS)
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
        #: per segment: activation -> stamp of its start / end event
        self.started = [{}, {}]
        self.ended = [{}, {}]

    # -- the world -----------------------------------------------------
    @rule(seg=st.integers(0, 1))
    def start(self, seg):
        n = len(self.started[seg])
        self.started[seg][n] = self.sim.now
        self.runtimes[seg]._on_start_sample(_sample(n))

    def _endable(self, seg):
        """Activations an end event may be posted for: started, not yet
        ended, and past the monitor's own start-event latency (armed, or
        already expired -- a late end event)."""
        runtime, chain = self.runtimes[seg], self.chains[seg]
        handled = {n for n, *_ in chain.log}
        return [
            n for n in self.started[seg]
            if n not in self.ended[seg]
            and (n in runtime.pending or n in handled)
        ]

    @precondition(lambda self: self._endable(0) or self._endable(1))
    @rule(seg=st.integers(0, 1), pick=st.integers(0, 1 << 16))
    def end(self, seg, pick):
        endable = self._endable(seg)
        if not endable:
            return
        n = endable[pick % len(endable)]
        self.ended[seg][n] = self.sim.now
        self.runtimes[seg]._on_end_sample(_sample(n))

    @rule(dt=st.sampled_from([1, usec(1), usec(7), usec(60), usec(900)]))
    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    # -- the spec ------------------------------------------------------
    def teardown(self):
        if not hasattr(self, "sim"):
            return
        # Quiescence: past every deadline, with one last wake-up so
        # buffered end events (which never notify) are consumed.
        self.sim.run(until=self.sim.now + usec(5000))
        stamps = sorted(
            [(ts, COSTS.start_event) for s in self.started for ts in s.values()]
            + [(ts, COSTS.end_event) for e in self.ended for ts in e.values()]
            + [(exc.raised_at, COSTS.exception_detect + HANDLER_COST)
               for r in self.runtimes for exc in r.exceptions]
        )
        for seg, runtime in enumerate(self.runtimes):
            d_mon, mk, _decline_every = self.setups[seg]
            handler = runtime.handler
            chain = self.chains[seg]
            assert sorted(n for n, *_ in chain.log) == sorted(
                self.started[seg]
            ), "every activation reported exactly once"
            raised = {exc.activation: exc for exc in runtime.exceptions}
            assert len(raised) == len(runtime.exceptions)
            window = MissWindow(mk)
            for n, outcome, latency, detection in chain.log:
                start_ts = self.started[seg][n]
                deadline = start_ts + d_mon
                end_ts = self.ended[seg].get(n)
                if outcome is Outcome.OK:
                    assert n not in raised
                    assert end_ts is not None
                    assert latency == end_ts - start_ts
                    window.record(False)
                    continue
                exc = raised[n]
                assert exc.deadline == deadline
                # No end event before the deadline, nor when it reacted.
                assert end_ts is None or end_ts >= deadline
                assert detection == exc.detection_latency
                # The monitor is the only thread: from the deadline on
                # it is busy with work posted by the time it reacts.
                assert 0 <= detection <= sum(
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
            for n, end_ts in self.ended[seg].items():
                if end_ts < self.started[seg][n] + d_mon:
                    assert n not in raised, "timely end event flagged"
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
        assert self.monitor._timeout_queue.live == 0


TestLocalMonitorSpec = LocalMonitorSpec.TestCase
TestLocalMonitorSpec.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
