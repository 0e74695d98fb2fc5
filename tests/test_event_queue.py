"""Hypothesis: the kernel fires events in ``(time, priority, seq)`` order.

The production :class:`~repro.sim.kernel.Simulator` keeps one binary
heap whose entries are retired by generation stamp: cancel and
``reschedule`` change the handle's stamp (``reschedule`` re-arms the
same handle), retired entries are counted, and once they reach
``max(_MIN_COMPACT, live)`` the heap is swept in place -- possibly from
inside a callback, while ``run`` is draining it.

This module drives the real simulator through arbitrary interleavings
of schedule / cancel / reschedule / ``run(until=)`` / ``step()``, with
rearm storms big enough to force sweeps both between runs and from a
firing callback, and checks every fired event against a brute-force
oracle: the minimum of the live ``(time, priority, seq)`` entries it
mirrors.  After every operation ``pending_events`` equals the oracle's
live count, the dead-entry counter equals the stale entries actually
resident, and the counter is below the sweep threshold.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import _MIN_COMPACT, Simulator

#: ~1 ms: the scale of a chain's slices, timeouts and periods.
STEP = 1 << 20

deltas = st.integers(min_value=0, max_value=3 * STEP)
priorities = st.integers(min_value=0, max_value=3)
#: Handle picks are taken modulo the handles issued so far, so every
#: draw is valid whatever came before.
picks = st.integers(min_value=0, max_value=255)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("at"), deltas, priorities),
        st.tuples(st.just("after"), deltas, priorities),
        st.tuples(st.just("now")),
        st.tuples(st.just("cancel"), picks),
        st.tuples(st.just("reschedule"), picks, deltas, priorities),
        st.tuples(st.just("storm"), st.integers(1, 2 * _MIN_COMPACT), deltas),
        st.tuples(st.just("storm_on_fire"), picks),
        st.tuples(st.just("run"), deltas),
        st.tuples(st.just("run_capped"), deltas),
        st.tuples(st.just("step")),
    ),
    max_size=120,
)


class _Mirror:
    """One simulator plus the sorted oracle of what it should fire."""

    def __init__(self):
        self.sim = Simulator()
        self.handles = []
        #: ident -> (time, priority, seq) of its one live entry
        self.live = {}
        #: idents whose callback re-arms every live handle when it fires
        self.storming = set()
        self.seq = 0
        self.limit = None
        self.fired = 0
        self.sweeps = 0

    # -- mirrored operations ---------------------------------------------
    def _arm(self, ident, time, priority):
        self.live[ident] = (time, priority, self.seq)
        self.seq += 1  # schedule and reschedule both consume one

    def schedule(self, how, dt=0, priority=0):
        sim = self.sim
        ident = len(self.handles)
        time = sim.now + dt
        if how == "at":
            handle = sim.schedule_at(time, self._fire, ident, priority=priority)
        elif how == "after":
            handle = sim.schedule_after(dt, self._fire, ident, priority=priority)
        else:
            handle = sim.call_now(self._fire, ident)
        self.handles.append(handle)
        self._arm(ident, time, priority)

    def cancel(self, pick):
        if self.handles:
            ident = pick % len(self.handles)
            self.handles[ident].cancel()  # idempotent, also once fired
            self.live.pop(ident, None)

    def reschedule(self, ident, dt, priority):
        sim = self.sim
        time = sim.now + dt
        sweeps = ident in self.live and sim._dead + 1 >= sim._compact_at
        handle = sim.reschedule(self.handles[ident], time, priority)
        assert handle is self.handles[ident], "reschedule re-arms in place"
        self._arm(ident, time, priority)
        self.sweeps += sweeps

    def storm(self, n, dt):
        """Re-arm live handles round-robin *n* times: *n* dead entries."""
        idents = sorted(self.live)
        for r in range(n if idents else 0):
            self.reschedule(idents[r % len(idents)], dt + r, r % 4)

    # -- the oracle --------------------------------------------------------
    def _fire(self, ident):
        expected = min(self.live.values())
        assert self.live[ident] == expected, "fired out of order"
        assert self.sim.now == expected[0]
        assert self.limit is None or expected[0] <= self.limit
        del self.live[ident]
        self.fired += 1
        if ident in self.storming:
            self.storm(_MIN_COMPACT, 0)

    def run(self, dt, capped=False):
        sim = self.sim
        self.limit = sim.now + dt
        before = self.fired
        if capped:  # the generic pop loop, which step() shares
            count = sim.run(until=self.limit, max_events=10**6)
        else:
            count = sim.run(until=self.limit)
        assert count == self.fired - before
        assert sim.now == self.limit
        assert all(time > self.limit for time, _, _ in self.live.values())
        self.limit = None

    def step(self):
        had, before = bool(self.live), self.fired
        assert self.sim.step() is had
        assert self.fired - before == had

    def check(self):
        sim = self.sim
        assert sim.pending_events == len(self.live)
        stale = sum(1 for e in sim._heap if e[3]._seq != e[2])
        assert stale == sim._dead, "dead counter drifted from the heap"
        assert sim._dead < sim._compact_at


def _apply(mirror, op):
    kind = op[0]
    if kind in ("at", "after"):
        mirror.schedule(kind, op[1], op[2])
    elif kind == "now":
        mirror.schedule("now")
    elif kind == "cancel":
        mirror.cancel(op[1])
    elif kind == "reschedule":
        if mirror.handles:
            mirror.reschedule(op[1] % len(mirror.handles), op[2], op[3])
    elif kind == "storm":
        mirror.storm(op[1], op[2])
    elif kind == "storm_on_fire":
        if mirror.handles:
            mirror.storming.add(op[1] % len(mirror.handles))
    elif kind == "run":
        mirror.run(op[1])
    elif kind == "run_capped":
        mirror.run(op[1], capped=True)
    else:
        mirror.step()


@given(OPS)
@settings(max_examples=150, deadline=None)
def test_interleaved_ops_match_sorted_oracle(ops):
    mirror = _Mirror()
    for op in ops:
        _apply(mirror, op)
        mirror.check()
    # Full drain: the tail comes out in order too, and nothing is left.
    left = len(mirror.live)
    assert mirror.sim.run() == left
    assert mirror.live == {}
    assert mirror.sim.step() is False
    mirror.check()


def test_sweep_from_a_firing_callback_keeps_order():
    # The first handle to fire re-arms the other 40 round-robin, 64
    # times: the sweep runs inside run() while it drains the heap.
    mirror = _Mirror()
    for i in range(41):
        mirror.schedule("at", STEP + i, 0)
    mirror.storming.add(0)
    mirror.run(10 * STEP)
    assert mirror.sweeps >= 1
    assert mirror.live == {} and mirror.fired == 41
    mirror.check()


def test_rearm_loop_keeps_the_heap_bounded():
    sim = Simulator()
    handle = sim.schedule_at(STEP, lambda: None)
    for i in range(10_000):
        handle = sim.reschedule(handle, STEP + i)
        assert len(sim._heap) <= _MIN_COMPACT
    assert sim.pending_events == 1
    assert sim.run() == 1 and sim.now == STEP + 9_999


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50 * STEP),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_bulk_drain_is_sorted(pairs):
    sim = Simulator()
    drained = []
    expected = []
    for seq, (time, priority) in enumerate(pairs):
        sim.schedule_at(time, drained.append, (time, priority, seq),
                        priority=priority)
        expected.append((time, priority, seq))
    assert sim.run() == len(pairs)
    assert drained == sorted(expected)
