"""The deque (m,k) window ``repro.core`` shipped until PR 20.

``repro.core.weakly_hard.MKAutomaton`` (one bit-packed integer per
window) is the only online (m,k) checker under ``src/``; this is the
deque of the last k outcomes it replaced in ``ChainRuntime``, the
segment runtimes and the shadow validator, moved here verbatim.  It is
the oracle of the Hypothesis equivalence tests
(``tests/test_telemetry_automaton.py``,
``tests/test_dag_budgeting_properties.py``) and of the Algorithm 2
executable spec (``tests/test_monitor_stateful_spec.py``), and the only
window that lists every violation index.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple, Union

from repro.core.weakly_hard import MKConstraint


class MissWindow:
    """Online sliding window of the last k outcomes.

    Feed outcomes with :meth:`record`; the window reports the current
    miss count and whether the constraint has been violated at any point
    so far.

    Accepts a validated :class:`MKConstraint` or a plain ``(m, k)``
    tuple, which is validated on construction -- a degenerate window
    (``k < 1`` or ``m`` outside ``[0, k]``) raises ``ValueError``
    immediately instead of silently mis-counting later.
    """

    def __init__(self, constraint: Union[MKConstraint, Tuple[int, int]]):
        if isinstance(constraint, tuple):
            constraint = MKConstraint(*constraint)
        if not isinstance(constraint, MKConstraint):
            raise ValueError(
                "MissWindow needs an MKConstraint or an (m, k) tuple, "
                f"got {constraint!r}"
            )
        self.constraint = constraint
        self._window: Deque[bool] = deque(maxlen=constraint.k)
        self._misses_in_window = 0
        self.total = 0
        self.total_misses = 0
        self.violations = 0
        #: Activation indices (0-based, counting records) of violations.
        self.violation_indices: List[int] = []

    @property
    def misses_in_window(self) -> int:
        """Miss count within the current window."""
        return self._misses_in_window

    @property
    def violated(self) -> bool:
        """True if the constraint was ever violated."""
        return self.violations > 0

    def record(self, miss: bool) -> bool:
        """Record one outcome; return True if the window now violates.

        A violation is counted at every position where the window
        contains more than m misses.
        """
        if (
            len(self._window) == self.constraint.k
            and self._window[0]
        ):
            self._misses_in_window -= 1
        self._window.append(miss)
        if miss:
            self._misses_in_window += 1
            self.total_misses += 1
        self.total += 1
        if self._misses_in_window > self.constraint.m:
            self.violations += 1
            self.violation_indices.append(self.total - 1)
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MissWindow {self.constraint} misses={self._misses_in_window} "
            f"total={self.total_misses}/{self.total}>"
        )
