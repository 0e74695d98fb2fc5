"""DAG-shaped event chains: fork/join topologies with per-sink deadlines.

The paper's system model (Sec. III) assumes a *linear* chain of
segments.  Real autonomous stacks are DAGs: a fusion stage joins several
sensor branches, and its output forks to consumers with different
deadlines ("Multi-Deadline DAG Scheduling Model for Autonomous Driving
Systems", PAPERS.md).  This module generalizes :class:`EventChain` to a
:class:`DagChain` while keeping the paper's machinery intact: a DAG is
the set of its root->sink *paths*, each of which is exactly a linear
event chain (:meth:`DagChain.path_chain`) and therefore budgeted by the
existing CSP (Eqs. 3-7, :mod:`repro.budgeting.dag`) and supervised by a
``ChainRuntime`` of its own: the perception stack's fusion DAG runs as
its four root->sink chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.chains import ChainValidationError, EventChain
from repro.core.segments import Segment
from repro.core.weakly_hard import MKConstraint

#: Separator used to render a path id from its segment names.
PATH_SEP = ">"

#: Safety cap on path enumeration -- a DAG whose path count explodes is
#: a modelling error, not a monitoring workload.
MAX_PATHS = 256


@dataclass(frozen=True)
class DagPath:
    """One root->sink path of a :class:`DagChain`."""

    path_id: str
    segment_names: Tuple[str, ...]

    @property
    def root(self) -> str:
        """Name of the path's first (source) segment."""
        return self.segment_names[0]

    @property
    def sink(self) -> str:
        """Name of the path's last (sink) segment."""
        return self.segment_names[-1]

    def __len__(self) -> int:
        return len(self.segment_names)

    def __str__(self) -> str:
        return self.path_id


class DagChain:
    """A monitored fork/join event-chain DAG.

    Parameters
    ----------
    name:
        DAG identifier, e.g. ``"perception_fusion"``.
    segments:
        The monitored segments (the DAG's nodes), in registration order.
    edges:
        ``(predecessor, successor)`` segment-name pairs.  Every edge must
        be gap-free: the predecessor's end event coincides with the
        successor's start event -- the paper's central soundness
        requirement, applied per edge instead of per consecutive pair.
    period:
        Activation period P in ns (one per DAG; all sources fire
        synchronously, as the paper's chains do).
    budget_e2e:
        End-to-end budget per *sink* segment.  A plain int applies the
        same budget to every sink; a mapping assigns per-sink deadlines
        (the "multiple deadlines" of the DAG scheduling literature).
    budget_seg:
        Per-segment bound ``B_seg`` (defaults to the period).
    mk:
        Weakly-hard constraint applied to every root->sink path.
        A mapping keyed by sink name overrides per sink.
    """

    def __init__(
        self,
        name: str,
        segments: Sequence[Segment],
        edges: Sequence[Tuple[str, str]],
        period: int,
        budget_e2e: Union[int, Mapping[str, int]],
        budget_seg: Optional[int] = None,
        mk: Union[MKConstraint, Mapping[str, MKConstraint], None] = None,
    ):
        self.name = name
        self.segments: Dict[str, Segment] = {}
        for segment in segments:
            if segment.name in self.segments:
                raise ChainValidationError(
                    f"{name}: duplicate segment {segment.name!r}"
                )
            self.segments[segment.name] = segment
        if not self.segments:
            raise ChainValidationError(f"{name}: DAG needs >= 1 segment")
        if period <= 0:
            raise ChainValidationError(f"{name}: period must be positive")
        self.period = period
        self.budget_seg = period if budget_seg is None else budget_seg

        self.edges: List[Tuple[str, str]] = []
        self._succ: Dict[str, List[str]] = {s: [] for s in self.segments}
        self._pred: Dict[str, List[str]] = {s: [] for s in self.segments}
        seen = set()
        for src, dst in edges:
            if src not in self.segments or dst not in self.segments:
                raise ChainValidationError(
                    f"{name}: edge ({src!r}, {dst!r}) references an "
                    f"unknown segment"
                )
            if src == dst:
                raise ChainValidationError(f"{name}: self-loop on {src!r}")
            if (src, dst) in seen:
                raise ChainValidationError(
                    f"{name}: duplicate edge ({src!r}, {dst!r})"
                )
            seen.add((src, dst))
            a, b = self.segments[src], self.segments[dst]
            if a.end != b.start:
                raise ChainValidationError(
                    f"{name}: unmonitored gap on edge {src} -> {dst} "
                    f"({src} ends {a.end}, {dst} starts {b.start})"
                )
            self.edges.append((src, dst))
            self._succ[src].append(dst)
            self._pred[dst].append(src)
        self._check_acyclic()

        sinks = self.sinks()
        if isinstance(budget_e2e, Mapping):
            missing = [s for s in sinks if s not in budget_e2e]
            if missing:
                raise ChainValidationError(
                    f"{name}: no end-to-end budget for sink(s) {missing}"
                )
            self._check_sink_keys("budget_e2e", budget_e2e)
            self.budget_e2e: Dict[str, int] = {
                s: int(budget_e2e[s]) for s in sinks
            }
        else:
            self.budget_e2e = {s: int(budget_e2e) for s in sinks}
        for sink, budget in self.budget_e2e.items():
            if budget <= 0:
                raise ChainValidationError(
                    f"{name}: budget for sink {sink} must be positive"
                )

        if mk is None:
            mk = MKConstraint(0, 1)
        if isinstance(mk, Mapping):
            self._check_sink_keys("mk", mk)
            default = MKConstraint(0, 1)
            self.mk: Dict[str, MKConstraint] = {
                s: mk.get(s, default) for s in sinks
            }
        else:
            self.mk = {s: mk for s in sinks}

        self._paths = self._enumerate_paths()

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def _check_acyclic(self) -> None:
        indegree = {s: len(self._pred[s]) for s in self.segments}
        queue = [s for s in self.segments if indegree[s] == 0]
        visited = 0
        while queue:
            node = queue.pop()
            visited += 1
            for succ in self._succ[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    queue.append(succ)
        if visited != len(self.segments):
            raise ChainValidationError(f"{self.name}: DAG contains a cycle")

    def _check_sink_keys(self, what: str, per_sink: Mapping) -> None:
        # A misspelled sink key would otherwise be dropped silently and
        # its sink fall back to the default.
        sinks = self.sinks()
        stray = [key for key in per_sink if key not in sinks]
        if stray:
            raise ChainValidationError(
                f"{self.name}: {what} key(s) {stray} name no sink "
                f"(sinks: {sinks})"
            )

    def roots(self) -> List[str]:
        """Source segments (no predecessors), registration order."""
        return [s for s in self.segments if not self._pred[s]]

    def sinks(self) -> List[str]:
        """Sink segments (no successors), registration order."""
        return [s for s in self.segments if not self._succ[s]]

    def successors(self, segment_name: str) -> List[str]:
        """Direct successors of one segment."""
        return list(self._succ[segment_name])

    def predecessors(self, segment_name: str) -> List[str]:
        """Direct predecessors of one segment."""
        return list(self._pred[segment_name])

    def _enumerate_paths(self) -> List[DagPath]:
        paths: List[DagPath] = []

        def walk(node: str, prefix: List[str]) -> None:
            prefix.append(node)
            if not self._succ[node]:
                if len(paths) >= MAX_PATHS:
                    raise ChainValidationError(
                        f"{self.name}: more than {MAX_PATHS} root->sink paths"
                    )
                paths.append(DagPath(
                    path_id=PATH_SEP.join(prefix),
                    segment_names=tuple(prefix),
                ))
            else:
                for succ in self._succ[node]:
                    walk(succ, prefix)
            prefix.pop()

        for root in self.roots():
            walk(root, [])
        return paths

    def paths(self) -> List[DagPath]:
        """Every root->sink path, in deterministic registration order."""
        return list(self._paths)

    def path_by_id(self, path_id: str) -> DagPath:
        """Look up one path by its id."""
        for path in self._paths:
            if path.path_id == path_id:
                return path
        raise KeyError(f"{self.name} has no path {path_id!r}")

    # ------------------------------------------------------------------
    # Path -> linear chain projection
    # ------------------------------------------------------------------
    def path_chain(self, path: DagPath) -> EventChain:
        """Project one path onto a linear :class:`EventChain`.

        The projected chain carries the sink's end-to-end budget and
        (m,k) constraint, which is how every existing linear-chain
        mechanism (budgeting CSP, monitors, ``ChainRuntime``, the fleet
        store's (m,k) windows) applies unchanged to DAG instances.
        """
        return EventChain(
            name=f"{self.name}:{path.path_id}",
            segments=[self.segments[s] for s in path.segment_names],
            period=self.period,
            budget_e2e=self.budget_e2e[path.sink],
            budget_seg=self.budget_seg,
            mk=self.mk[path.sink],
        )

    def path_chains(self) -> Dict[str, EventChain]:
        """All path projections, keyed by path id."""
        return {p.path_id: self.path_chain(p) for p in self._paths}

    # ------------------------------------------------------------------
    # Deadlines
    # ------------------------------------------------------------------
    @property
    def deadlines_assigned(self) -> bool:
        """True once every segment has a monitored deadline."""
        return all(s.d_mon is not None for s in self.segments.values())

    def __len__(self) -> int:
        return len(self.segments)

    def __str__(self) -> str:
        return (
            f"DagChain({self.name}: {len(self.segments)} segments, "
            f"{len(self.edges)} edges, {len(self._paths)} paths, "
            f"P={self.period})"
        )

    def __repr__(self) -> str:  # pragma: no cover
        return self.__str__()
