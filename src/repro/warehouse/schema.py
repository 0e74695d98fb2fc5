"""Warehouse schemas: run manifests and chain metadata.

A *run bundle* is the unit of ingestion: a ``manifest.json`` describing
where the spans came from plus a ``spans.jsonl`` export from the
tracing layer.  The manifest pins

- the **run key** ``(run_id, commit, suite, scenario, vehicle)`` the
  warehouse indexes cohorts by,
- ``n_frames`` (the chain activations the run simulated, so the
  analyzer knows which instances to look for), and
- the full **chain metadata** (segments with their delimiting event
  points, ``d_mon`` / ``d_ex`` deadline splits, periods, (m,k) and
  end-to-end budgets), so ingestion can rebuild genuine
  :class:`~repro.core.chains.EventChain` objects and run the *same*
  :class:`~repro.tracing.critical_path.CriticalPathAnalyzer` code path
  a live run would -- warehouse aggregates therefore reconcile exactly
  with per-run attribution.

Versioning mirrors ``telemetry/store.py``: an unknown schema identifier
raises :class:`~repro.schema.SchemaVersionError` before any
state is touched; unknown *extra* fields inside a known schema warn and
are ignored (additive evolution).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.chains import EventChain
from repro.core.events import EventKind, EventPoint
from repro.core.segments import Segment, SegmentKind
from repro.core.weakly_hard import MKConstraint
from repro.schema import SchemaVersionError

#: Schema identifier of a run bundle's ``manifest.json``.
MANIFEST_SCHEMA = "repro-warehouse-manifest/1"

#: Schema identifier of an attribution-diff document.
DIFF_SCHEMA = "repro-warehouse-diff/1"

#: Top-level manifest fields this build understands.
_MANIFEST_FIELDS = frozenset(
    {"schema", "run_id", "commit", "suite", "scenario", "vehicle",
     "n_frames", "chains", "extra"}
)


def _warn_unknown_fields(context: str, data: dict, known: frozenset) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        warnings.warn(
            f"{context}: ignoring unknown field(s) {unknown} "
            f"(written by a newer build?)",
            stacklevel=3,
        )


# ----------------------------------------------------------------------
# Chain metadata (JSON <-> EventChain)
# ----------------------------------------------------------------------
def _point_to_meta(point: EventPoint) -> Dict[str, str]:
    return {
        "topic": point.topic,
        "kind": point.kind.value,
        "ecu": point.ecu,
        "process": point.process,
    }


def _point_from_meta(meta: Dict[str, str]) -> EventPoint:
    return EventPoint(
        topic=meta["topic"],
        kind=EventKind(meta["kind"]),
        ecu=meta["ecu"],
        process=meta.get("process", ""),
    )


def chain_to_meta(chain: EventChain) -> Dict[str, Any]:
    """The JSON-able metadata of one monitored chain."""
    return {
        "name": chain.name,
        "period": chain.period,
        "budget_e2e": chain.budget_e2e,
        "budget_seg": chain.budget_seg,
        "mk": [chain.mk.m, chain.mk.k],
        "segments": [
            {
                "name": seg.name,
                "kind": seg.kind.value,
                "start": _point_to_meta(seg.start),
                "end": _point_to_meta(seg.end),
                "d_mon": seg.d_mon,
                "d_ex": seg.d_ex,
            }
            for seg in chain.segments
        ],
    }


def chain_from_meta(meta: Dict[str, Any]) -> EventChain:
    """Rebuild a genuine (fully validated) chain from its metadata."""
    segments = [
        Segment(
            name=seg["name"],
            kind=SegmentKind(seg["kind"]),
            start=_point_from_meta(seg["start"]),
            end=_point_from_meta(seg["end"]),
            d_mon=seg.get("d_mon"),
            d_ex=seg.get("d_ex", 0),
        )
        for seg in meta["segments"]
    ]
    return EventChain(
        name=meta["name"],
        segments=segments,
        period=meta["period"],
        budget_e2e=meta["budget_e2e"],
        budget_seg=meta.get("budget_seg"),
        mk=MKConstraint(*meta.get("mk", (0, 1))),
    )


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunKey:
    """The identity a run is indexed (and cohorts are selected) by."""

    run_id: str
    commit: str = "unknown"
    suite: str = "trace"
    scenario: str = ""
    vehicle: str = ""

    def __post_init__(self) -> None:
        if not self.run_id:
            raise ValueError("run_id must be non-empty")


@dataclass
class RunManifest:
    """Everything the warehouse needs to ingest one run's spans."""

    key: RunKey
    n_frames: int
    chains: List[Dict[str, Any]] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")

    @classmethod
    def for_run(
        cls,
        key: RunKey,
        chains: Dict[str, EventChain],
        n_frames: int,
        extra: Optional[Dict[str, Any]] = None,
    ) -> "RunManifest":
        """Build a manifest from live chain objects (export side)."""
        return cls(
            key=key,
            n_frames=n_frames,
            chains=[chain_to_meta(chains[name]) for name in sorted(chains)],
            extra=dict(extra or {}),
        )

    def build_chains(self) -> Dict[str, EventChain]:
        """Reconstruct the run's monitored chains (ingest side)."""
        chains = {meta["name"]: chain_from_meta(meta) for meta in self.chains}
        if len(chains) != len(self.chains):
            raise ValueError(f"{self.key.run_id}: duplicate chain names")
        return chains

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "run_id": self.key.run_id,
            "commit": self.key.commit,
            "suite": self.key.suite,
            "scenario": self.key.scenario,
            "vehicle": self.key.vehicle,
            "n_frames": self.n_frames,
            "chains": self.chains,
            "extra": self.extra,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "RunManifest":
        """Parse + version-check a manifest document."""
        if not isinstance(data, dict):
            raise SchemaVersionError("manifest", None, MANIFEST_SCHEMA)
        if data.get("schema") != MANIFEST_SCHEMA:
            raise SchemaVersionError(
                "manifest", data.get("schema"), MANIFEST_SCHEMA
            )
        _warn_unknown_fields("manifest", data, _MANIFEST_FIELDS)
        return cls(
            key=RunKey(
                run_id=data["run_id"],
                commit=data.get("commit", "unknown"),
                suite=data.get("suite", "trace"),
                scenario=data.get("scenario", ""),
                vehicle=data.get("vehicle", ""),
            ),
            n_frames=data["n_frames"],
            chains=list(data.get("chains", [])),
            extra=dict(data.get("extra", {})),
        )
