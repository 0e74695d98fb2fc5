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
The queue is a plain ``heapq`` of ``(time, priority, seq, event)``
tuples (tuple comparison is C-level and the unique ``seq`` guarantees
the event object itself is never compared), ``run`` and the
``schedule_*`` methods carry the heap push and pop inlined, hot
schedule sites pass no ``label`` (only ``ScheduledEvent.__repr__``
reads one; formatting it per event costs more than the event), and
trace emission is skipped entirely while no hook is registered.  None
of this changes observable behavior: the golden-trace suite
(``tests/test_golden_traces.py``) pins the event order bit-for-bit, and
``tests/test_hot_path_budget.py`` pins the number of events a
perception frame fires.

An entry is live iff ``event._seq == seq``: cancel and reschedule
retire the resident entry by changing the event's generation stamp, so
a re-armed handle is reused without allocation.  Retired entries are
counted and swept in one pass once they reach ``max(_MIN_COMPACT,
live)``, which bounds the heap under rearm-heavy loops.  No workload
keeps more than ~26 entries resident, so ``log n`` is a few compares.
A lazy-cancel heap that gives ``reschedule`` a fresh handle is the
test oracle ``tests/_reference/heap_kernel.py``;
``tests/test_differential_engines.py`` replays whole scenario suites on
both and asserts byte-identical golden fingerprints and digests.
"""

from __future__ import annotations

import itertools
import math
import zlib
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: Number of nanoseconds per microsecond / millisecond / second.
NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

#: Sweep retired heap entries once this many have accumulated (or, after
#: a sweep, as many as there were live entries, whichever is larger):
#: amortized O(1) per cancel, and the heap never holds more than about
#: twice its live entries.
_MIN_COMPACT = 64


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
    resident queue entry by generation stamp and tells the simulator,
    which sweeps its heap once enough entries have died.
    """

    __slots__ = (
        "callback", "args", "time", "cancelled", "label", "ctx", "_sim", "_seq"
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
        #: The simulator whose heap holds this event's live entry (None
        #: once popped), so cancellation can be accounted eagerly.
        self._sim = None
        #: Generation stamp: the heap entry ``(time, prio, seq, ev)`` is
        #: live iff ``seq == self._seq``.  Cancel and reschedule retire
        #: the resident entry by changing this.
        self._seq = -1

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            self._seq = -1
            sim._note_dead()

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
        self._heap: List[tuple] = []
        #: Retired entries still resident in ``_heap``.
        self._dead = 0
        self._compact_at = _MIN_COMPACT
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
        # The push, inlined: this is the hottest call site in the
        # repository and the call overhead is measurable.
        seq = self._next_seq()
        event._sim = self
        event._seq = seq
        heappush(self._heap, (time, priority, seq, event))
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
        # The push, inlined (see schedule_at).
        seq = self._next_seq()
        event._sim = self
        event._seq = seq
        heappush(self._heap, (time, priority, seq, event))
        return event

    def call_now(
        self, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> ScheduledEvent:
        """Schedule *callback* at the current instant (after current event)."""
        return self.schedule_at(self.now, callback, *args, label=label)

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
        if event._sim is not None:
            # A live entry is resident: retire it before a sweep can see
            # it (the push below stamps the handle anew).
            event._seq = -1
            self._note_dead()
        event.cancelled = False
        event.time = time
        if self.spans is not None:
            event.ctx = self.spans.current
        # The push, inlined (see schedule_at).
        seq = self._next_seq()
        event._sim = self
        event._seq = seq
        heappush(self._heap, (time, priority, seq, event))
        return event

    def _note_dead(self) -> None:
        """Count one retired resident entry; sweep when they pile up."""
        self._dead += 1
        if self._dead >= self._compact_at:
            # In place: ``run`` holds a reference to the list.
            heap = self._heap
            heap[:] = [e for e in heap if e[3]._seq == e[2]]
            heapify(heap)
            self._dead = 0
            self._compact_at = max(_MIN_COMPACT, len(heap))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pop(self, limit: Optional[int] = None) -> Optional[tuple]:
        """Pop the earliest live entry, or None.

        With *limit*, an entry later than ``limit`` stays queued and
        None is returned.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if event._seq != entry[2]:
                heappop(heap)
                self._dead -= 1
                continue
            if limit is not None and entry[0] > limit:
                return None
            heappop(heap)
            event._sim = None
            return entry
        return None

    def step(self) -> bool:
        """Fire the next pending event.  Return False when queue is empty."""
        entry = self._pop()
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
        spans = self.spans
        if spans is None and max_events is None:
            # The one production loop: pop first, and push back the one
            # entry past ``until`` that ends the call.  A sweep triggered
            # by a callback rebuilds the heap in place, so the local
            # reference stays valid.
            limit = float("inf") if until is None else until
            heap = self._heap
            while heap:
                entry = heappop(heap)
                time, _, seq, event = entry
                if event._seq != seq:
                    self._dead -= 1  # cancelled: consumed, not fired
                    continue
                if time > limit:
                    heappush(heap, entry)
                    break
                event._sim = None
                self.now = time
                event.callback(*event.args)
                count += 1
        else:
            pop = self._pop
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
        return len(self._heap) - self._dead

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
