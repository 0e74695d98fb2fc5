"""Deterministic event-driven simulation kernel.

The kernel keeps a priority queue of scheduled events ordered by
``(time, priority, sequence)``.  Every piece of the simulated world --
scheduler decisions, timer expirations, network deliveries -- is an event.
Simulated time is an integer number of nanoseconds, which keeps arithmetic
exact and makes traces reproducible bit-for-bit across runs with the same
seed.

Randomness is drawn from named streams.  Each stream is a
``numpy.random.Generator`` seeded from the simulator seed and the stream
name, so adding a new consumer of randomness never perturbs the draws seen
by existing consumers (a classic requirement for comparable experiments).

Performance notes
-----------------
This module is the hottest path of the repository: every simulated
microsecond of every experiment flows through :meth:`Simulator.run`.
Queue entries are therefore plain ``(time, priority, seq, event)`` tuples
(tuple comparison is C-level and the unique ``seq`` guarantees the event
object itself is never compared), ``run`` and the ``schedule_*`` methods
carry the queue's pop and push inlined, hot schedule sites pass no
``label`` (only ``ScheduledEvent.__repr__`` reads one; formatting it per
event costs more than the event), and trace emission is skipped entirely
while no hook is registered.  None of this changes observable behavior:
the golden-trace suite (``tests/test_golden_traces.py``) pins the event
order bit-for-bit, and ``tests/test_hot_path_budget.py`` pins the number
of events a perception frame fires.

The queue is a bucketed calendar queue (:mod:`repro.sim.calendar`):
O(1) amortized insert, one sort per time bucket, and eager reclamation
of cancelled entries, which is what makes rearm/cancel-heavy timer
workloads cheap.  The binary heap it replaced lives on as the test
oracle ``tests/_reference/heap_kernel.py``;
``tests/test_differential_engines.py`` replays whole scenario suites
on both and asserts byte-identical golden fingerprints and digests.
"""

from __future__ import annotations

import heapq
import itertools
import math
import zlib
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .calendar import CalendarQueue

#: Number of nanoseconds per microsecond / millisecond / second.
NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def _round_half_away(value: float) -> int:
    """Round to the nearest integer, halves away from zero.

    Python's built-in ``round`` uses banker's rounding (half to even),
    which maps both ``0.5 -> 0`` and ``-0.5 -> 0``: a duration of half a
    nanosecond would silently vanish, and negative offsets would round
    differently from their positive mirrors.  Durations round half away
    from zero instead, so ``nsec(0.5) == 1`` and ``nsec(-0.5) == -1``.
    """
    if value >= 0:
        return int(math.floor(value + 0.5))
    return int(math.ceil(value - 0.5))


def nsec(value: float) -> int:
    """Return *value* nanoseconds as an integer duration."""
    return _round_half_away(value)


def usec(value: float) -> int:
    """Return *value* microseconds as an integer nanosecond duration."""
    return _round_half_away(value * NS_PER_US)


def msec(value: float) -> int:
    """Return *value* milliseconds as an integer nanosecond duration."""
    return _round_half_away(value * NS_PER_MS)


def sec(value: float) -> int:
    """Return *value* seconds as an integer nanosecond duration."""
    return _round_half_away(value * NS_PER_S)


def fmt_time(t_ns: int) -> str:
    """Render a nanosecond timestamp in a human-friendly unit."""
    if abs(t_ns) >= NS_PER_S:
        return f"{t_ns / NS_PER_S:.6f}s"
    if abs(t_ns) >= NS_PER_MS:
        return f"{t_ns / NS_PER_MS:.3f}ms"
    if abs(t_ns) >= NS_PER_US:
        return f"{t_ns / NS_PER_US:.3f}us"
    return f"{t_ns}ns"


class ScheduledEvent:
    """Handle for an event sitting in the simulator's queue.

    Cancellation is eager in aggregate: :meth:`cancel` retires the
    resident queue entry by generation stamp and tells the queue, which
    compacts once enough entries have died.
    """

    __slots__ = (
        "callback", "args", "time", "cancelled", "label", "ctx", "_cq", "_seq"
    )

    def __init__(
        self,
        callback: Callable[..., None],
        args: tuple,
        time: int,
        label: str = "",
    ) -> None:
        self.callback = callback
        self.args = args
        self.time = time
        self.cancelled = False
        self.label = label
        #: Span context captured at schedule time (span tracing only;
        #: stays None while ``sim.spans`` is unset).
        self.ctx = None
        #: Back-reference to the calendar queue while the event is
        #: resident there (None after pop), so cancellation can be
        #: accounted eagerly.
        self._cq = None
        #: Generation stamp: the calendar entry ``(time, prio, seq, ev)``
        #: is live iff ``seq == self._seq``.  Cancel and reschedule
        #: retire the resident entry by changing this.
        self._seq = -1

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        cq = self._cq
        if cq is not None:
            self._cq = None
            self._seq = -1
            cq.note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent {self.label or self.callback} @{fmt_time(self.time)} {state}>"


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling into the past)."""


class Simulator:
    """Event-driven simulator with integer-nanosecond time.

    Parameters
    ----------
    seed:
        Master seed for all named random streams.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule_after(msec(5), fired.append, "hello")
    >>> sim.run()
    1
    >>> (sim.now, fired)
    (5000000, ['hello'])
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.now: int = 0
        self._cal = CalendarQueue()
        self._next_seq = itertools.count().__next__
        self._entity_ids: Dict[str, int] = {}
        self._rngs: Dict[str, np.random.Generator] = {}
        self._trace_hooks: List[Callable[[str, int, dict], None]] = []
        #: True once a trace hook is registered.  Hot emitters check
        #: this before building their field dicts, so untraced runs
        #: (benchmarks, workers) skip the cost entirely.
        self.tracing_active = False
        #: Optional :class:`repro.tracing.spans.SpanRecorder`.  Duck-typed:
        #: every hot-path consumer performs one is-None check when
        #: tracing is off.  Attach *before* ``run()``.
        self.spans = None

    # ------------------------------------------------------------------
    # Entity identifiers
    # ------------------------------------------------------------------
    def next_entity_id(self, kind: str) -> int:
        """Mint the next id (1, 2, ...) for *kind* of entity.

        Scoped to this simulator -- not the process -- so entity names
        (participant guids, writer/reader ids) embedded in traces are
        identical no matter how many simulations ran before in the same
        interpreter.  The golden-trace digests rely on this.
        """
        value = self._entity_ids.get(kind, 0) + 1
        self._entity_ids[kind] = value
        return value

    # ------------------------------------------------------------------
    # Random streams
    # ------------------------------------------------------------------
    def rng(self, stream: str) -> np.random.Generator:
        """Return the generator for the named stream (created on demand)."""
        gen = self._rngs.get(stream)
        if gen is None:
            # crc32 (not hash()) so stream seeding is stable across
            # processes: Python's str hash is salted per interpreter.
            seed_seq = np.random.SeedSequence(
                [self.seed, zlib.crc32(stream.encode("utf-8"))]
            )
            gen = np.random.default_rng(seed_seq)
            self._rngs[stream] = gen
        return gen

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule *callback(\\*args)* to fire at absolute *time*.

        Events at the same instant fire in ascending *priority* order, ties
        broken by insertion order.  Scheduling into the past raises
        :class:`SimulationError`.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {fmt_time(time)}, "
                f"now is {fmt_time(self.now)}"
            )
        event = ScheduledEvent(callback, args, time, label=label)
        if self.spans is not None:
            event.ctx = self.spans.current
        # CalendarQueue.push, inlined: this is the hottest call site
        # in the repository and the call overhead is measurable.
        cal = self._cal
        seq = self._next_seq()
        event._cq = cal
        event._seq = seq
        key = time >> cal._shift
        entry = (time, priority, seq, event)
        if key <= cal._act_key:
            heapq.heappush(cal._extra, entry)
        else:
            pend = cal._pend
            lst = pend.get(key)
            if lst is None:
                pend[key] = [entry]
                heapq.heappush(cal._keys, key)
            else:
                lst.append(entry)
        return event

    def schedule_after(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule *callback* to fire *delay* nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        event = ScheduledEvent(callback, args, time, label=label)
        if self.spans is not None:
            event.ctx = self.spans.current
        # CalendarQueue.push, inlined (see schedule_at).
        cal = self._cal
        seq = self._next_seq()
        event._cq = cal
        event._seq = seq
        key = time >> cal._shift
        entry = (time, priority, seq, event)
        if key <= cal._act_key:
            heapq.heappush(cal._extra, entry)
        else:
            pend = cal._pend
            lst = pend.get(key)
            if lst is None:
                pend[key] = [entry]
                heapq.heappush(cal._keys, key)
            else:
                lst.append(entry)
        return event

    def call_now(
        self, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> ScheduledEvent:
        """Schedule *callback* at the current instant (after current event)."""
        event = ScheduledEvent(callback, args, self.now, label=label)
        if self.spans is not None:
            event.ctx = self.spans.current
        self._cal.push(self.now, 0, self._next_seq(), event)
        return event

    def reschedule(
        self, event: ScheduledEvent, time: int, priority: int = 0
    ) -> ScheduledEvent:
        """Re-arm an event handle at a new absolute *time*.

        This is the deadline-QoS rearm primitive: timers that cancel
        and immediately re-schedule on every sample should use it
        instead of ``cancel()`` + ``schedule_at()``.  Returns the
        handle to keep: the *same* handle is reused (the stale queue
        entry is retired by generation stamp, O(1) amortized, no
        allocation) and one sequence number is consumed, exactly as
        ``cancel()`` + ``schedule_at()`` would.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {fmt_time(time)}, "
                f"now is {fmt_time(self.now)}"
            )
        cal = self._cal
        if event._cq is not None:
            # A live entry is resident: retire it (the new generation
            # stamp set by push makes it stale) and account it dead.
            event._cq = None
            event._seq = -1
            cal.note_cancel()
        event.cancelled = False
        event.time = time
        if self.spans is not None:
            event.ctx = self.spans.current
        # CalendarQueue.push, inlined (see schedule_at).
        seq = self._next_seq()
        event._cq = cal
        event._seq = seq
        key = time >> cal._shift
        entry = (time, priority, seq, event)
        if key <= cal._act_key:
            heapq.heappush(cal._extra, entry)
        else:
            pend = cal._pend
            lst = pend.get(key)
            if lst is None:
                pend[key] = [entry]
                heapq.heappush(cal._keys, key)
            else:
                lst.append(entry)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Return False when queue is empty."""
        entry = self._cal.pop()
        if entry is None:
            return False
        self.now = entry[0]
        event = entry[3]
        spans = self.spans
        if spans is not None:
            spans.current = event.ctx
        event.callback(*event.args)
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this instant.  Events at
            exactly ``until`` still fire.  ``None`` runs until the queue
            empties.
        max_events:
            Safety valve: abort with :class:`SimulationError` after this
            many events (guards against accidental infinite event loops).

        Returns
        -------
        int
            The number of events that fired.
        """
        count = 0
        cal = self._cal
        spans = self.spans
        if spans is None and max_events is None:
            # The one production loop: CalendarQueue.pop, inlined, with
            # the ``until`` compare folded in.  Nearly every event of a
            # monitored run is scheduled a few microseconds ahead, into
            # the bucket being drained, so the merge of the sorted run
            # with the overflow heap is the common case, not the
            # exception.  Callbacks can schedule, cancel, or trigger a
            # compaction that rebuilds both, so the queue state is
            # re-read for every entry.
            limit = float("inf") if until is None else until
            heappop = heapq.heappop
            while True:
                act = cal._act_sorted
                i = cal._act_idx
                extra = cal._extra
                if i < len(act):
                    entry = act[i]
                    if extra and extra[0] < entry:
                        entry = extra[0]
                        i = -1
                elif extra:
                    entry = extra[0]
                    i = -1
                elif cal._activate():
                    continue
                else:
                    break
                time, _, seq, event = entry
                live = event._seq == seq
                if live and time > limit:
                    break
                if i < 0:
                    heappop(extra)
                else:
                    cal._act_idx = i + 1
                if live:
                    event._cq = None
                    self.now = time
                    event.callback(*event.args)
                    count += 1
                else:
                    cal._dead -= 1  # cancelled: consumed, not fired
        else:
            pop = cal.pop
            while True:
                entry = pop(until)
                if entry is None:
                    break
                self.now = entry[0]
                event = entry[3]
                if spans is not None:
                    spans.current = event.ctx
                event.callback(*event.args)
                count += 1
                if max_events is not None and count >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
            if spans is not None:
                spans.current = None
        if until is not None and self.now < until:
            self.now = until
        return count

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return self._cal.live

    # ------------------------------------------------------------------
    # Tracing hooks (used by repro.tracing)
    # ------------------------------------------------------------------
    def add_trace_hook(self, hook: Callable[[str, int, dict], None]) -> None:
        """Register *hook(name, time_ns, fields)* for kernel trace points."""
        self._trace_hooks.append(hook)
        self.tracing_active = True

    def emit_trace(self, name: str, **fields: Any) -> None:
        """Deliver a trace point to all registered hooks."""
        for hook in self._trace_hooks:
            hook(name, self.now, fields)
