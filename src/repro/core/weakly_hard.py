"""Weakly-hard (m,k) constraints and sliding-window miss accounting.

An (m,k) constraint (Bernat/Burns/Llamosi) tolerates at most ``m``
deadline misses within *any* ``k`` consecutive executions.  The paper
applies it to end-to-end chain executions and -- thanks to miss
propagation -- reuses the same (m,k) for individual segment deadlines.

:class:`MKAutomaton` is the one online window: chain runtimes, segment
monitors, the shadow validator and the fleet store all feed it.  The
window is one integer (bit i set = the i-th most recent outcome was a
miss), a record is two shifts and a mask, and the whole state
serializes to a handful of integers.  The deque of the last k outcomes
it replaced is the test oracle ``tests/_reference/miss_window.py``;
``tests/test_telemetry_automaton.py`` proves record-for-record
equivalence on random verdict streams.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Sequence, Tuple, Union


@dataclass(frozen=True)
class MKConstraint:
    """At most *m* misses in any *k* consecutive executions."""

    m: int
    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or not isinstance(self.k, int):
            raise ValueError(
                f"(m, k) must be integers, got m={self.m!r}, k={self.k!r}"
            )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got k={self.k}")
        if not (0 <= self.m <= self.k):
            raise ValueError(
                f"need 0 <= m <= k, got (m, k) = ({self.m}, {self.k})"
            )

    @property
    def hard(self) -> bool:
        """True when the constraint is a hard deadline (m == 0)."""
        return self.m == 0

    def __str__(self) -> str:
        return f"({self.m},{self.k})"


class MKAutomaton:
    """O(1) online (m,k) checker over a bit-packed outcome window.

    Feed outcomes with :meth:`record`: it returns True whenever the
    window of the last k outcomes holds more than m misses, and every
    such position counts one violation.

    Accepts a validated :class:`MKConstraint` or a plain ``(m, k)``
    tuple, which is validated on construction -- a degenerate window
    (``k < 1`` or ``m`` outside ``[0, k]``) raises ``ValueError``
    immediately instead of silently mis-counting later.
    """

    __slots__ = (
        "m", "k", "_state", "_mask", "_out_shift", "_filled",
        "misses_in_window", "total", "total_misses", "violations",
        "last_violation",
    )

    def __init__(self, constraint: Union[MKConstraint, Tuple[int, int]]):
        if isinstance(constraint, tuple):
            constraint = MKConstraint(*constraint)
        if not isinstance(constraint, MKConstraint):
            raise ValueError(
                f"MKAutomaton needs an MKConstraint or (m, k) tuple, "
                f"got {constraint!r}"
            )
        self.m = constraint.m
        self.k = constraint.k
        self._state = 0
        self._mask = (1 << constraint.k) - 1
        self._out_shift = constraint.k - 1
        self._filled = 0
        self.misses_in_window = 0
        self.total = 0
        self.total_misses = 0
        self.violations = 0
        #: Activation index (0-based record count) of the last violation,
        #: or -1.  Counts are kept, not per-violation lists: a fleet key
        #: may violate millions of times over its lifetime.
        self.last_violation = -1

    @property
    def constraint(self) -> MKConstraint:
        """The checked constraint (reconstructed; not stored)."""
        return MKConstraint(self.m, self.k)

    @property
    def margin(self) -> int:
        """How many further misses the current window tolerates."""
        return self.m - self.misses_in_window

    @property
    def violated(self) -> bool:
        """True if the constraint was ever violated."""
        return self.violations > 0

    def record(self, miss: bool) -> bool:
        """Record one outcome; True if the window now violates."""
        if self._filled == self.k:
            # The outgoing (oldest) bit leaves the window.
            self.misses_in_window -= (self._state >> self._out_shift) & 1
        else:
            self._filled += 1
        if miss:
            self._state = ((self._state << 1) | 1) & self._mask
            self.misses_in_window += 1
            self.total_misses += 1
        else:
            self._state = (self._state << 1) & self._mask
        self.total += 1
        if self.misses_in_window > self.m:
            self.violations += 1
            self.last_violation = self.total - 1
            return True
        return False

    def window_bits(self) -> List[bool]:
        """The buffered window, oldest outcome first (diagnostics)."""
        n = self._filled
        return [bool((self._state >> (n - 1 - i)) & 1) for i in range(n)]

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """JSON-able exact state (restored by :meth:`restore`)."""
        return {
            "m": self.m,
            "k": self.k,
            "state": self._state,
            "filled": self._filled,
            "misses_in_window": self.misses_in_window,
            "total": self.total,
            "total_misses": self.total_misses,
            "violations": self.violations,
            "last_violation": self.last_violation,
        }

    @classmethod
    def restore(cls, data: Dict[str, int]) -> "MKAutomaton":
        """Rebuild an automaton from :meth:`snapshot` output."""
        automaton = cls((data["m"], data["k"]))
        automaton._state = data["state"]
        automaton._filled = data["filled"]
        automaton.misses_in_window = data["misses_in_window"]
        automaton.total = data["total"]
        automaton.total_misses = data["total_misses"]
        automaton.violations = data["violations"]
        automaton.last_violation = data["last_violation"]
        return automaton

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MKAutomaton ({self.m},{self.k}) "
            f"misses={self.misses_in_window} total={self.total} "
            f"violations={self.violations}>"
        )


def max_window_misses(misses: Sequence[bool], k: int) -> int:
    """Maximum number of misses in any window of k consecutive outcomes.

    Windows shorter than k (at the trace tail) are also considered --
    they cannot exceed a full window's count, so this equals the classic
    sliding-window maximum.  O(n).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got k={k}")
    best = 0
    current = 0
    window: Deque[bool] = deque()
    for miss in misses:
        window.append(miss)
        if miss:
            current += 1
        if len(window) > k:
            if window.popleft():
                current -= 1
        if current > best:
            best = current
    return best

