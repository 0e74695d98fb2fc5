"""The one error every versioned on-disk / on-wire format raises, and
the one compact JSON codec every format writes and reads.

Imports nothing from :mod:`repro`: every layer that persists a document
(telemetry records and snapshots, WAL segments, span exports, epoch
ledgers) can raise it and use the codec without depending on another.

The codec builds CPython's C encoders and C scanner once, at import:
``json.dumps(o, separators=...)`` builds a ``JSONEncoder`` and a C
encoder per call, and ``json.loads`` runs three Python frames per
parse.  :func:`encode_json` / :func:`encode_json_sorted` equal
``json.dumps(o, separators=(",", ":"))`` (``sort_keys=True``) and
:func:`decode_json` equals ``json.loads``, byte for byte and exception
for exception.  A site that runs once per line calls the C objects
inline, in :func:`encode_json`'s and :func:`decode_json`'s idiom, so
the line pays no Python frame for them.
"""

from __future__ import annotations

import json
from json import encoder as _encoder, scanner as _scanner

if _encoder.c_make_encoder is None or _scanner.c_make_scanner is None:
    raise ImportError("repro.schema needs the json module's C accelerator")

#: Circular-reference markers of both encoders.  An encode that raises
#: leaves its open containers here, so every caller clears it on failure.
#: Encoding JSON values runs no Python code, so under the GIL no other
#: thread's encode interleaves with one that succeeds.
json_markers: dict = {}


def _c_encoder(sort_keys: bool):
    return _encoder.c_make_encoder(
        json_markers, json.JSONEncoder().default,
        _encoder.encode_basestring_ascii, None, ":", ",",
        sort_keys, False, True,
    )


#: ``c_encode_json(o, 0)`` -> chunks whose ``"".join`` is the compact
#: JSON of *o*; ``c_encode_json_sorted`` sorts dict keys.
c_encode_json = _c_encoder(False)
c_encode_json_sorted = _c_encoder(True)
#: ``c_scan_json(text, 0)`` -> ``(doc, end)`` for the JSON value at the
#: start of *text*; ``StopIteration`` when none starts there.
c_scan_json = _scanner.c_make_scanner(json.JSONDecoder())


def encode_json(doc) -> str:
    """``json.dumps(doc, separators=(",", ":"))``."""
    try:
        return "".join(c_encode_json(doc, 0))
    except BaseException:
        json_markers.clear()
        raise


def encode_json_sorted(doc) -> str:
    """``json.dumps(doc, separators=(",", ":"), sort_keys=True)``."""
    try:
        return "".join(c_encode_json_sorted(doc, 0))
    except BaseException:
        json_markers.clear()
        raise


def decode_json(text):
    """``json.loads(text)``.  The scan accepts exactly one document that
    fills *text*; on any miss (padding, a BOM, trailing data, bytes,
    damage) ``json.loads`` accepts or raises as it always did."""
    try:
        doc, end = c_scan_json(text, 0)
        if end == len(text):
            return doc
    except (StopIteration, TypeError, ValueError):
        pass
    return json.loads(text)


class SchemaVersionError(ValueError):
    """A persisted document carries a schema this build cannot read.

    Raised *before* any state is touched, with the offending and the
    supported identifiers in the message -- never an obscure ``KeyError``
    halfway through a restore.  Unknown *extra* fields inside a known
    schema are tolerated with a warning instead (additive evolution).
    """

    def __init__(self, context: str, found, supported: str):
        super().__init__(
            f"{context}: unsupported schema {found!r} "
            f"(this build reads {supported!r})"
        )
        self.found = found
        self.supported = supported
