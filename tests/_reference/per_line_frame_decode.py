"""The per-line uplink frame decode shipped until the gateway step
became the fleet path's unit of work.

Production ``transport.decode_frame`` checks every line's CRC and then
parses all record bodies of a frame with one ``json.loads``, returning
type-checked wire rows.  This is the function it replaced, body
verbatim but for the record object it built: one ``json.loads`` per
line, then that record's length and kind check, no field type check.
Oracle of ``tests/test_uplink_frame_decode_differential.py``: over
valid frames and mutations both must reject, or agree on header, rows
and raw lines -- except where production is stricter on purpose
(listed there).
"""

from __future__ import annotations

import json
import zlib
from typing import List, Optional, Tuple

from repro.telemetry.records import KINDS, WIRE_FIELDS
from repro.telemetry.uplink.transport import FRAME_SCHEMA


def decode_frame(
    payload: str,
) -> Optional[Tuple[dict, List[list], List[str]]]:
    """``(header, rows, raw entry lines)``; ``None`` on any damage.

    A frame is all-or-nothing: a corrupt header, a corrupt record line,
    or a truncated tail (``count`` mismatch) rejects the whole frame --
    the retransmit timer heals it, exactly-once dedup absorbs the
    overlap.
    """
    if not isinstance(payload, str) or "\n" not in payload:
        return None
    lines = payload.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # empty-frame probe: header line + trailing newline
    head = lines[0]
    if len(head) < 10 or head[8] != ":":
        return None
    body = head[9:]
    try:
        crc = int(head[:8], 16)
    except ValueError:
        return None
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != crc:
        return None
    try:
        header = json.loads(body)
    except ValueError:
        return None
    if (
        not isinstance(header, dict)
        or header.get("schema") != FRAME_SCHEMA
        or not isinstance(header.get("source"), str)
        or not isinstance(header.get("frame_id"), int)
        or not isinstance(header.get("floor"), int)
        or header.get("count") != len(lines) - 1
    ):
        return None
    rows: List[list] = []
    for line in lines[1:]:
        if len(line) < 10 or line[8] != ":":
            return None
        entry_body = line[9:]
        try:
            entry_crc = int(line[:8], 16)
        except ValueError:
            return None
        if zlib.crc32(entry_body.encode("utf-8")) & 0xFFFFFFFF != entry_crc:
            return None
        try:
            fields = json.loads(entry_body)
        except ValueError:
            return None
        if (
            not isinstance(fields, list)
            or len(fields) != WIRE_FIELDS
            or fields[0] not in KINDS
        ):
            return None
        rows.append(fields)
    return header, rows, lines[1:]
