"""The one error every versioned on-disk / on-wire format raises.

Imports nothing from :mod:`repro`: every layer that persists a document
(telemetry records and snapshots, WAL segments, span exports, epoch
ledgers) can raise it without depending on another.
"""

from __future__ import annotations


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
