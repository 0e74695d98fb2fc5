"""Per-path (m,k) supervision of DAG event chains.

A :class:`DagChainRuntime` is the DAG analogue of
:class:`~repro.core.chain_runtime.ChainRuntime`, and is built from it:
:meth:`DagChain.path_chain` projects every root->sink path onto a
linear :class:`~repro.core.chains.EventChain` (same name, budget and
(m,k)), and each projection gets its own ``ChainRuntime``.  The
per-activation fold -- which activations violated, the sliding (m,k)
window, the aggregate :class:`ChainReport` -- is ``ChainRuntime``'s; this
class only decides which paths a report lands on.

Reports route two ways:

- :meth:`report` mirrors the ``ChainRuntime`` reporter contract
  (``report(segment, n, outcome, ...)``): a segment outcome lands on
  every path containing that segment, so existing monitors plug in
  unchanged.
- :meth:`report_path` addresses one path explicitly -- used by
  end-to-end path monitors whose verdict already incorporates which
  sink deadline applies.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.chain_runtime import ChainReport, ChainRuntime, Outcome
from repro.core.dag import DagChain
from repro.core.exceptions import TemporalException


class DagChainRuntime:
    """Collects monitor reports for one DAG and judges each path."""

    def __init__(
        self,
        dag: DagChain,
        on_violation: Optional[Callable[[str, int, int], None]] = None,
    ):
        self.dag = dag
        #: path id -> the linear runtime of that path's projection.
        self.path_runtimes: Dict[str, ChainRuntime] = {}
        #: segment name -> runtimes of the paths containing it.
        self._membership: Dict[str, List[ChainRuntime]] = {
            s: [] for s in dag.segments
        }
        for path in dag.paths():
            runtime = ChainRuntime(
                dag.path_chain(path),
                on_violation=self._path_violation(path.path_id),
            )
            self.path_runtimes[path.path_id] = runtime
            for name in path.segment_names:
                self._membership[name].append(runtime)
        self.exceptions: List[TemporalException] = []
        #: Called as ``on_violation(path_id, activation, window_misses)``.
        self.on_violation = on_violation

    def _path_violation(self, path_id: str) -> Callable[[int, int], None]:
        def fire(activation: int, window_misses: int) -> None:
            if self.on_violation is not None:
                self.on_violation(path_id, activation, window_misses)
        return fire

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(
        self,
        segment_name: str,
        activation: int,
        outcome: Outcome,
        latency: Optional[int] = None,
        detection_latency: Optional[int] = None,
    ) -> None:
        """Record a segment outcome on every path through the segment.

        Raises :class:`KeyError` for a segment name not in the DAG
        (mirroring :meth:`report_path`) -- a misspelled monitor name
        must not silently drop its outcomes.
        """
        if segment_name not in self._membership:
            raise KeyError(
                f"unknown segment {segment_name!r} in DAG {self.dag.name!r} "
                f"(have {sorted(self._membership)})"
            )
        for runtime in self._membership[segment_name]:
            runtime.report(
                segment_name, activation, outcome, latency, detection_latency
            )

    def report_path(
        self,
        path_id: str,
        activation: int,
        outcome: Outcome,
        latency: Optional[int] = None,
        detection_latency: Optional[int] = None,
    ) -> None:
        """Record an end-to-end outcome for one specific path.

        The record is filed under the path's sink segment.
        """
        sink = self.dag.path_by_id(path_id).sink
        self.path_runtimes[path_id].report(
            sink, activation, outcome, latency, detection_latency
        )

    def report_exception(self, exception: TemporalException) -> None:
        """Archive a raised temporal exception (diagnostics)."""
        self.exceptions.append(exception)

    # ------------------------------------------------------------------
    # Online supervision
    # ------------------------------------------------------------------
    def advance_window(self, through_activation: int) -> None:
        """Feed completed activations into every path's (m,k) window."""
        for runtime in self.path_runtimes.values():
            runtime.advance_window(through_activation)

    @property
    def violated_paths(self) -> List[str]:
        """Path ids whose (m,k) constraint was ever violated."""
        return [
            path_id for path_id, runtime in self.path_runtimes.items()
            if runtime.window.violated
        ]

    # ------------------------------------------------------------------
    # Offline verdicts
    # ------------------------------------------------------------------
    def finalize(
        self, through_activation: Optional[int] = None
    ) -> Dict[str, ChainReport]:
        """Aggregate per-path reports over all observed activations."""
        return {
            path_id: runtime.finalize(through_activation)
            for path_id, runtime in self.path_runtimes.items()
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<DagChainRuntime {self.dag.name} paths={len(self.path_runtimes)} "
            f"violated={len(self.violated_paths)}>"
        )
