"""Fleet-scale span warehouse with cross-run regression mining.

Per-run tracing (``repro.tracing``) attributes one run's latency to
critical-path edges; this package makes that attribution *comparable
across runs*: an indexed, append-only sqlite warehouse ingests the
tracing layer's JSONL exports (campaign / chaos / adapt / fleet runs),
persists per-(run, chain, category, segment) DDSketch percentile
sketches next to the raw spans, and answers "which edge category
regressed between these two commits / fleet cohorts" from sketch
merges instead of raw re-scans.

- :mod:`~repro.warehouse.schema` -- run manifests + chain metadata
  (versioned, mirrors ``telemetry/store.py``'s guard discipline);
- :mod:`~repro.warehouse.ingest` -- run-bundle export/import with the
  strict span-schema version guard;
- :mod:`~repro.warehouse.store` -- the sqlite tables, idempotent
  digest-checked ingestion and the order-independent store digest;
- :mod:`~repro.warehouse.query` -- cohort selectors, sketch-merge
  aggregation, attribution diffs and renderers;
- :mod:`~repro.warehouse.gate` -- the bench-compare CI integration
  (attribution-diff artifact on any flagged regression);
- :mod:`~repro.warehouse.cli` -- ``python -m repro warehouse``.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.warehouse.schema": (
        "DIFF_SCHEMA", "MANIFEST_SCHEMA", "RunKey", "RunManifest",
        "chain_from_meta", "chain_to_meta",
    ),
    "repro.warehouse.ingest": (
        "load_run_bundle", "read_spans_jsonl", "write_run_bundle",
    ),
    "repro.warehouse.store": (
        "WAREHOUSE_SCHEMA", "IngestResult", "SpanWarehouse", "content_digest",
    ),
    "repro.warehouse.query": (
        "ChainCohort", "CohortAggregate", "RunSelector", "aggregate",
        "attribution_diff", "dump_diff", "regressed_categories",
        "render_cohort", "render_diff", "select_runs",
    ),
    "repro.warehouse.gate": (
        "attach_attribution_diff", "build_regression_artifact",
    ),
})
