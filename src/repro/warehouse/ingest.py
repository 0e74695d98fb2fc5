"""Run-bundle export and the strict (version-guarded) span importer.

A run bundle is one directory::

    <bundle>/manifest.json   # RunManifest (repro-warehouse-manifest/1)
    <bundle>/spans.jsonl     # tracing JSONL export (repro-spans/1)

:func:`write_run_bundle` is the producer side (called by
``python -m repro trace --export-run`` and the examples);
:func:`load_run_bundle` is the consumer side the warehouse CLI feeds to
:meth:`~repro.warehouse.store.SpanWarehouse.ingest_run`.

Unlike :func:`repro.tracing.export.read_jsonl` (which tolerates legacy
headerless files), the importer here **requires** the span schema
header and raises :class:`~repro.schema.SchemaVersionError`
on an unknown or missing version -- the warehouse must never silently
mis-ingest spans written by an incompatible build.  Unknown extra
fields inside a known schema warn and are ignored.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.chains import EventChain
from repro.tracing.export import parse_jsonl_lines, to_jsonl
from repro.tracing.spans import Span, SpanRecorder
from repro.warehouse.schema import RunKey, RunManifest

#: File names inside a run bundle directory.
MANIFEST_NAME = "manifest.json"
SPANS_NAME = "spans.jsonl"


def read_spans_jsonl(path: Union[str, Path]) -> List[Span]:
    """Load a spans JSONL export, *requiring* the schema header."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        return parse_jsonl_lines(
            iter(handle), require_header=True, context=str(path)
        )


def write_run_bundle(
    recorder: SpanRecorder,
    chains: Dict[str, EventChain],
    n_frames: int,
    out_dir: Union[str, Path],
    key: RunKey,
    extra: Optional[dict] = None,
) -> Tuple[Path, int]:
    """Write ``manifest.json`` + ``spans.jsonl`` for one finished run.

    Returns ``(bundle_dir, span_count)``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest.for_run(key, chains, n_frames, extra=extra)
    (out / MANIFEST_NAME).write_text(
        json.dumps(manifest.to_json(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    count = -1  # header line is not a span
    with (out / SPANS_NAME).open("w", encoding="utf-8") as handle:
        for line in to_jsonl(recorder):
            handle.write(line)
            handle.write("\n")
            count += 1
    return out, count


def load_run_bundle(
    bundle_dir: Union[str, Path]
) -> Tuple[RunManifest, List[Span]]:
    """Load one run bundle, version-checking both documents."""
    bundle = Path(bundle_dir)
    manifest_path = bundle / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(
            f"{bundle}: not a run bundle (no {MANIFEST_NAME})"
        )
    manifest = RunManifest.from_json(
        json.loads(manifest_path.read_text(encoding="utf-8"))
    )
    spans = read_spans_jsonl(bundle / SPANS_NAME)
    return manifest, spans
