"""The sqlite-backed, append-only span warehouse.

One warehouse file accumulates every ingested run:

- ``runs`` -- one row per run manifest, keyed by ``run_id`` and indexed
  by ``(commit, suite, scenario, vehicle)`` for cohort selection;
- ``spans`` -- the raw span rows (lossless: links/attrs as JSON),
  indexed by ``(run_id, category)``;
- ``instances`` / ``edges`` -- the per-frame critical paths and their
  telescoping edge decomposition, indexed by edge category, so "show me
  the queue edges that regressed" is one indexed scan, not a re-walk of
  millions of spans;
- ``segment_obs`` -- per-instance observed segment spans, indexed by
  segment, feeding d_mon budget-burn queries;
- ``sketches`` -- per ``(run, chain, kind, key)`` DDSketch snapshots
  (:class:`~repro.analysis.histogram.StreamingHistogram`), so cohort
  p50/p95/p99 come from **sketch merges**, never raw re-scans.

Ingestion runs the exact per-run code path
(:class:`~repro.tracing.critical_path.CriticalPathAnalyzer` +
:func:`~repro.tracing.critical_path.attribute_chain`) on the imported
spans, so warehouse aggregates reconcile exactly -- integer-ns
telescoping included -- with what a live analysis of the same run
reports.

Determinism contract (``tests/test_warehouse_store.py``):

- re-ingesting an identical run is a no-op (the warehouse digest is
  unchanged);
- re-ingesting a *different* payload under an existing ``run_id`` is
  refused (append-only, no silent rewrite);
- :meth:`SpanWarehouse.digest` hashes rows in primary-key order, so it
  is independent of ingest order across runs.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.schema import SchemaVersionError
from repro.analysis.histogram import StreamingHistogram
from repro.tracing.critical_path import (
    CriticalPathAnalyzer,
    attribute_chain,
)
from repro.tracing.export import span_to_dict
from repro.tracing.spans import Span
from repro.warehouse.schema import RunManifest

#: Schema identifier stamped into (and required from) every warehouse.
WAREHOUSE_SCHEMA = "repro-warehouse/1"

#: Sketch kinds persisted per (run, chain).
SKETCH_KINDS = ("e2e", "category", "edge", "segment")

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id         TEXT PRIMARY KEY,
    commit_id      TEXT NOT NULL,
    suite          TEXT NOT NULL,
    scenario       TEXT NOT NULL,
    vehicle        TEXT NOT NULL,
    n_frames       INTEGER NOT NULL,
    n_spans        INTEGER NOT NULL,
    n_instances    INTEGER NOT NULL,
    content_digest TEXT NOT NULL,
    manifest       TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_commit ON runs (commit_id);
CREATE INDEX IF NOT EXISTS idx_runs_cohort ON runs (suite, scenario, vehicle);
CREATE TABLE IF NOT EXISTS spans (
    run_id    TEXT NOT NULL,
    span_id   INTEGER NOT NULL,
    trace_id  INTEGER NOT NULL,
    parent_id INTEGER,
    name      TEXT NOT NULL,
    category  TEXT NOT NULL,
    start_ns  INTEGER NOT NULL,
    end_ns    INTEGER,
    links     TEXT,
    attrs     TEXT,
    PRIMARY KEY (run_id, span_id)
);
CREATE INDEX IF NOT EXISTS idx_spans_category ON spans (run_id, category);
CREATE TABLE IF NOT EXISTS instances (
    run_id   TEXT NOT NULL,
    chain    TEXT NOT NULL,
    frame    INTEGER NOT NULL,
    start_ns INTEGER NOT NULL,
    end_ns   INTEGER NOT NULL,
    e2e_ns   INTEGER NOT NULL,
    PRIMARY KEY (run_id, chain, frame)
);
CREATE TABLE IF NOT EXISTS edges (
    run_id   TEXT NOT NULL,
    chain    TEXT NOT NULL,
    frame    INTEGER NOT NULL,
    idx      INTEGER NOT NULL,
    name     TEXT NOT NULL,
    category TEXT NOT NULL,
    start_ns INTEGER NOT NULL,
    end_ns   INTEGER NOT NULL,
    PRIMARY KEY (run_id, chain, frame, idx)
);
CREATE INDEX IF NOT EXISTS idx_edges_category ON edges (run_id, category);
CREATE TABLE IF NOT EXISTS segment_obs (
    run_id      TEXT NOT NULL,
    chain       TEXT NOT NULL,
    frame       INTEGER NOT NULL,
    segment     TEXT NOT NULL,
    observed_ns INTEGER,
    PRIMARY KEY (run_id, chain, frame, segment)
);
CREATE INDEX IF NOT EXISTS idx_segment_obs ON segment_obs (run_id, segment);
CREATE TABLE IF NOT EXISTS sketches (
    run_id    TEXT NOT NULL,
    chain     TEXT NOT NULL,
    kind      TEXT NOT NULL,
    key       TEXT NOT NULL,
    budget_ns INTEGER,
    snapshot  TEXT NOT NULL,
    PRIMARY KEY (run_id, chain, kind, key)
);
CREATE TABLE IF NOT EXISTS attributions (
    run_id      TEXT NOT NULL,
    chain       TEXT NOT NULL,
    n_instances INTEGER NOT NULL,
    budget_e2e  INTEGER,
    PRIMARY KEY (run_id, chain)
);
"""

#: (table, ordered column list) pairs the warehouse digest walks, in a
#: fixed order with ORDER BY the primary key -- ingest order never
#: changes the digest.
_DIGEST_TABLES: Tuple[Tuple[str, str], ...] = (
    ("runs", "run_id"),
    ("spans", "run_id, span_id"),
    ("instances", "run_id, chain, frame"),
    ("edges", "run_id, chain, frame, idx"),
    ("segment_obs", "run_id, chain, frame, segment"),
    ("sketches", "run_id, chain, kind, key"),
    ("attributions", "run_id, chain"),
)


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_digest(manifest: RunManifest, spans: Iterable[Span]) -> str:
    """The ingest-idempotency digest of one run's payload."""
    h = hashlib.sha256()
    h.update(_canonical(manifest.to_json()).encode())
    for span in spans:
        h.update(b"\n")
        h.update(_canonical(span_to_dict(span)).encode())
    return h.hexdigest()


class _LoadedRun:
    """Duck-typed stand-in for a SpanRecorder (analyzer input)."""

    __slots__ = ("spans",)

    def __init__(self, spans: List[Span]):
        self.spans = spans


@dataclass
class IngestResult:
    """What one :meth:`SpanWarehouse.ingest_run` call did."""

    run_id: str
    skipped: bool
    n_spans: int
    n_instances: int
    digest: str


class SpanWarehouse:
    """An append-only warehouse of analyzed span runs.

    Parameters
    ----------
    path:
        Database file; ``":memory:"`` for an ephemeral warehouse.
    """

    def __init__(self, path: Union[str, Path] = ":memory:"):
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.executescript(_TABLES)
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema', ?)",
                (WAREHOUSE_SCHEMA,),
            )
            self._conn.commit()
        elif row[0] != WAREHOUSE_SCHEMA:
            self._conn.close()
            raise SchemaVersionError(
                f"warehouse {self.path}", row[0], WAREHOUSE_SCHEMA
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SpanWarehouse":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest_run(
        self, manifest: RunManifest, spans: List[Span]
    ) -> IngestResult:
        """Analyze and store one run (idempotent per content digest).

        Re-ingesting a byte-identical run is a no-op; re-using a
        ``run_id`` for different content raises ``ValueError`` (the
        warehouse is append-only).
        """
        digest = content_digest(manifest, spans)
        run_id = manifest.key.run_id
        row = self._conn.execute(
            "SELECT content_digest, n_spans, n_instances FROM runs "
            "WHERE run_id = ?",
            (run_id,),
        ).fetchone()
        if row is not None:
            if row[0] != digest:
                raise ValueError(
                    f"run {run_id!r} already ingested with different "
                    f"content (have {row[0][:12]}, got {digest[:12]}); "
                    "the warehouse is append-only"
                )
            return IngestResult(run_id, True, row[1], row[2], digest)

        chains = manifest.build_chains()
        analyzer = CriticalPathAnalyzer(_LoadedRun(spans))
        frames = range(manifest.n_frames)

        cur = self._conn.cursor()
        try:
            cur.execute("BEGIN")
            cur.executemany(
                "INSERT INTO spans VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    (
                        run_id, s.span_id, s.trace_id, s.parent_id, s.name,
                        s.category, s.start, s.end,
                        _canonical(s.links) if s.links else None,
                        _canonical(s.attrs) if s.attrs else None,
                    )
                    for s in spans
                ),
            )
            n_instances = 0
            for name in sorted(chains):
                chain = chains[name]
                paths = analyzer.analyze(chain, frames)
                n_instances += len(paths)
                for path in paths:
                    path.verify()  # integer-ns telescoping, always
                    cur.execute(
                        "INSERT INTO instances VALUES (?, ?, ?, ?, ?, ?)",
                        (run_id, name, path.frame, path.start_ts,
                         path.end_ts, path.e2e_ns),
                    )
                    cur.executemany(
                        "INSERT INTO edges VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                        (
                            (run_id, name, path.frame, idx, edge.name,
                             edge.category, edge.start, edge.end)
                            for idx, edge in enumerate(path.edges)
                        ),
                    )
                    cur.executemany(
                        "INSERT INTO segment_obs VALUES (?, ?, ?, ?, ?)",
                        (
                            (run_id, name, path.frame, seg_name, observed)
                            for seg_name, observed
                            in analyzer.segment_spans(chain, path)
                        ),
                    )
                attribution = attribute_chain(
                    analyzer, chain, frames, paths=paths
                )
                cur.execute(
                    "INSERT INTO attributions VALUES (?, ?, ?, ?)",
                    (run_id, name, attribution.n_instances,
                     attribution.budget_e2e),
                )
                self._insert_sketches(cur, run_id, name, attribution)
            cur.execute(
                "INSERT INTO runs VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id, manifest.key.commit, manifest.key.suite,
                    manifest.key.scenario, manifest.key.vehicle,
                    manifest.n_frames, len(spans), n_instances, digest,
                    _canonical(manifest.to_json()),
                ),
            )
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise
        return IngestResult(run_id, False, len(spans), n_instances, digest)

    def _insert_sketches(self, cur, run_id: str, chain: str, attribution):
        def put(kind: str, key: str, hist: StreamingHistogram,
                budget: Optional[int]) -> None:
            cur.execute(
                "INSERT INTO sketches VALUES (?, ?, ?, ?, ?, ?)",
                (run_id, chain, kind, key, budget,
                 _canonical(hist.snapshot())),
            )

        put("e2e", "e2e", attribution.e2e_histogram, attribution.budget_e2e)
        for key in sorted(attribution.category_histograms):
            put("category", key, attribution.category_histograms[key], None)
        for key in sorted(attribution.edge_histograms):
            put("edge", key, attribution.edge_histograms[key], None)
        for key in sorted(attribution.segment_burn):
            hist, d_mon = attribution.segment_burn[key]
            put("segment", key, hist, d_mon)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def runs(self) -> List[Dict[str, Any]]:
        """Every ingested run's manifest row, ordered by run_id."""
        rows = self._conn.execute(
            "SELECT run_id, commit_id, suite, scenario, vehicle, n_frames, "
            "n_spans, n_instances, content_digest FROM runs ORDER BY run_id"
        ).fetchall()
        keys = ("run_id", "commit", "suite", "scenario", "vehicle",
                "n_frames", "n_spans", "n_instances", "content_digest")
        return [dict(zip(keys, row)) for row in rows]

    def chains_of(self, run_ids: Iterable[str]) -> List[str]:
        """Chain names attributed in any of *run_ids*, sorted."""
        ids = sorted(set(run_ids))
        if not ids:
            return []
        marks = ",".join("?" for _ in ids)
        rows = self._conn.execute(
            f"SELECT DISTINCT chain FROM attributions WHERE run_id IN ({marks}) "
            "ORDER BY chain",
            ids,
        ).fetchall()
        return [row[0] for row in rows]

    def sketch_rows(
        self, run_ids: Iterable[str], chain: str
    ) -> List[Tuple[str, str, str, Optional[int], str]]:
        """(run_id, kind, key, budget_ns, snapshot) rows for *chain*."""
        ids = sorted(set(run_ids))
        if not ids:
            return []
        marks = ",".join("?" for _ in ids)
        return self._conn.execute(
            f"SELECT run_id, kind, key, budget_ns, snapshot FROM sketches "
            f"WHERE run_id IN ({marks}) AND chain = ? "
            "ORDER BY run_id, kind, key",
            ids + [chain],
        ).fetchall()

    def attribution_rows(
        self, run_ids: Iterable[str], chain: str
    ) -> List[Tuple[str, int, Optional[int]]]:
        """(run_id, n_instances, budget_e2e) rows for *chain*."""
        ids = sorted(set(run_ids))
        if not ids:
            return []
        marks = ",".join("?" for _ in ids)
        return self._conn.execute(
            f"SELECT run_id, n_instances, budget_e2e FROM attributions "
            f"WHERE run_id IN ({marks}) AND chain = ? ORDER BY run_id",
            ids + [chain],
        ).fetchall()

    def edge_count(self, run_id: Optional[str] = None,
                   category: Optional[str] = None) -> int:
        """Indexed count of stored edges (drill-down smoke queries)."""
        sql, params = "SELECT COUNT(*) FROM edges", []
        clauses = []
        if run_id is not None:
            clauses.append("run_id = ?")
            params.append(run_id)
        if category is not None:
            clauses.append("category = ?")
            params.append(category)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        return self._conn.execute(sql, params).fetchone()[0]

    def span_count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM spans").fetchone()[0]

    # ------------------------------------------------------------------
    # Determinism
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """sha256 over every table's rows in primary-key order.

        Independent of ingest order and of sqlite page layout (the hash
        walks logical rows, not file bytes).
        """
        h = hashlib.sha256()
        for table, order in _DIGEST_TABLES:
            h.update(table.encode())
            for row in self._conn.execute(
                f"SELECT * FROM {table} ORDER BY {order}"  # noqa: S608
            ):
                h.update(_canonical(list(row)).encode())
        return h.hexdigest()
