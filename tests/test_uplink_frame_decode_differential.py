"""The one-parse frame decode against the per-line decode it replaced.

``transport.decode_frame`` checks each line's CRC and then hands every
record body of the frame to a single ``json.loads``;
``tests/_reference/per_line_frame_decode.py`` is the old function, one
parse and one record check per line.  Over generated valid frames
and their mutations -- flipped characters, truncation, dropped /
duplicated / merged / split lines, CRC-valid hostile bodies -- both must
reject, or agree on header, rows and raw lines.  Production may only be
*stricter*, and only in the two ways :func:`_stricter_on_purpose` names.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _reference.per_line_frame_decode import decode_frame as reference_decode
from repro.telemetry.records import RecordKind
from repro.telemetry.uplink.transport import (
    FRAME_SCHEMA,
    decode_frame,
    encode_envelope,
    encode_frame,
)
from repro.telemetry.uplink.wal import encode_entry

_STR_FIELDS = (0, 1, 2, 3, 6, 7)


def _row(seq=0, **overrides):
    row = ["segment", "veh-0", "c", "s", 1, 100, "ok", "", 5, seq]
    for index, value in overrides.items():
        row[int(index[1:])] = value
    return row


def _body(row) -> str:
    return json.dumps(row, separators=(",", ":"))


def _line(row) -> str:
    return encode_entry(_body(row))


def _frame(lines, **header) -> str:
    doc = {"schema": FRAME_SCHEMA, "source": "veh-0", "frame_id": 3,
           "floor": 0, "count": len(lines)}
    doc.update(header)
    head = encode_envelope(doc)
    return "\n".join([head, *lines]) if lines else head + "\n"


def _well_typed(header, rows) -> bool:
    """The wire types, position by position (a bool is not an int)."""
    if any(type(header[key]) is not int
           for key in ("frame_id", "floor", "count")):
        return False
    for row in rows:
        for index, value in enumerate(row):
            if index in _STR_FIELDS:
                ok = type(value) is str
            elif index == 5:
                ok = value is None or type(value) is int
            else:
                ok = type(value) is int
            if not ok:
                return False
    return True


def _stricter_on_purpose(payload, header, rows) -> bool:
    """The frames the old decode accepted and the new one refuses: a
    wrongly typed header or record field (the old path crashed on those
    further in), and a record body that is not exactly ``[...]`` (no
    encoder here pads one with whitespace)."""
    bodies = [line[9:] for line in payload.split("\n")[1:] if line]
    return not _well_typed(header, rows) or any(
        body != body.strip() for body in bodies
    )


def _check(payload) -> None:
    new = decode_frame(payload)
    try:
        old = reference_decode(payload)
    except TypeError:
        # Found by this property, reproduces at the parent: a kind that
        # is a JSON array is unhashable, and the per-line decode raised
        # out of its kind lookup instead of rejecting the frame.
        old = None
    if old is None:
        assert new is None, "accepted a frame the per-line decode rejects"
        return
    header, rows, lines = old
    if new is None:
        assert _stricter_on_purpose(payload, header, rows)
        return
    assert not _stricter_on_purpose(payload, header, rows)
    assert new == (header, rows, lines)


# ----------------------------------------------------------------------
# Generated frames and mutations
# ----------------------------------------------------------------------
_TEXT = st.text(
    alphabet=st.sampled_from('ab[]{},:"\\ \n\té '), max_size=6
)
_INT = st.integers(-2**40, 2**70)
_ROWS = st.lists(
    st.tuples(
        st.sampled_from([kind.value for kind in RecordKind]),
        _TEXT, _TEXT, _TEXT, _INT, st.none() | _INT, _TEXT, _TEXT, _INT, _INT,
    ).map(list),
    max_size=6,
)
#: A field of the wrong type, or a hostile body, behind a valid CRC.
_HOSTILE_BODIES = st.sampled_from([
    '1],[2', '[1],[2]', '[]', '{}', 'null', '[[1]', '[2]]', '["nonsense"]',
    ' ' + _body(_row()), _body(_row()) + ' ',
    _body(_row()) + ',' + _body(_row(1)),
    '["segment","veh-0","c","s",1,100,"ok","",5,NaN]',
    '["segment","veh-0","c","s",1,100,"ok","',
    '",5,7]',
]) | st.builds(
    lambda index, value: _body(_row(**{f"f{index}": value})),
    st.integers(0, 9),
    st.sampled_from(["7", 7, True, None, 1.5, [7], {"a": 1}, "bogus"]),
)


@st.composite
def _mutated_frames(draw):
    lines = [_line(row) for row in draw(_ROWS)]
    header = {}
    mutation = draw(st.sampled_from([
        "none", "flip", "truncate", "drop", "duplicate", "merge", "split",
        "hostile", "header",
    ]))
    if mutation == "hostile":
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(
                draw(st.integers(0, len(lines))),
                encode_entry(draw(_HOSTILE_BODIES)),
            )
    elif mutation == "header":
        header[draw(st.sampled_from(
            ["schema", "source", "frame_id", "floor", "count"]
        ))] = draw(st.sampled_from(["3", 3, True, None, 2.0, -1]))
    payload = _frame(lines, **header)
    parts = payload.split("\n")
    if mutation == "flip":
        index = draw(st.integers(0, len(payload) - 1))
        payload = payload[:index] + draw(
            st.sampled_from('#0a[],"\n ')
        ) + payload[index + 1:]
    elif mutation == "truncate":
        payload = payload[:draw(st.integers(0, len(payload)))]
    elif mutation in ("drop", "duplicate") and len(parts) > 1:
        index = draw(st.integers(1, len(parts) - 1))
        if mutation == "drop":
            del parts[index]
        else:
            parts.insert(index, parts[index])
        payload = "\n".join(parts)
    elif mutation == "merge" and len(parts) > 2:
        index = draw(st.integers(1, len(parts) - 2))
        parts[index:index + 2] = [
            parts[index] + draw(st.sampled_from(["", ","])) + parts[index + 1]
        ]
        payload = "\n".join(parts)
    elif mutation == "split":
        index = draw(st.integers(0, len(payload)))
        payload = payload[:index] + "\n" + payload[index:]
    return payload


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payload=_mutated_frames())
def test_one_parse_decode_agrees_with_the_per_line_decode(payload):
    _check(payload)


# ----------------------------------------------------------------------
# Directed cases
# ----------------------------------------------------------------------
def test_valid_frame_round_trips_rows_and_raw_lines():
    rows = [_row(seq) for seq in range(4)]
    lines = [_line(row) for row in rows]
    header, decoded, raw = decode_frame(encode_frame("veh-0", 3, 0, lines))
    assert (header["count"], decoded, raw) == (4, rows, lines)
    _check(encode_frame("veh-0", 3, 0, lines))
    _check(encode_frame("veh-0", 4, 9, []))  # the empty floor probe


def test_rows_never_straddle_lines():
    # Each of these parses once the bodies are joined, and has as many
    # top-level rows as lines -- only the per-line rules reject it.
    text, two_rows = _body(_row(0)), _body(_row(0)) + "," + _body(_row(1))
    straddling = [
        # A row cut in two between fields, then two rows on one line to
        # keep the count.
        [text[:text.index(",1,")], text[text.index(",1,") + 1:], two_rows],
        # A string spanning the line break (joined with a bare comma it
        # would read as one string holding ``],[``).
        ['["segment","veh-0","c","s",1,100,"ok","x]', '[y",5,0]', two_rows],
        # Two rows on one line, none on the next.
        ['1],[2'],
        # One row that closes the joined array early: what follows it is
        # data after the document, which the parse must not ignore.
        [text + '],["x"]'],
    ]
    for bodies in straddling:
        payload = _frame([encode_entry(body) for body in bodies])
        assert decode_frame(payload) is None
        _check(payload)


@pytest.mark.parametrize("field, value", [
    ("f9", "7"), ("f9", True), ("f8", "5"), ("f4", None), ("f5", 1.5),
    ("f1", 7), ("f0", "bogus"),
])
def test_wrongly_typed_record_field_rejects_the_frame(field, value):
    payload = _frame([_line(_row(0)), _line(_row(1, **{field: value}))])
    assert decode_frame(payload) is None
    _check(payload)


@pytest.mark.parametrize("key, value", [
    ("frame_id", "3"), ("frame_id", True), ("floor", None), ("floor", 1.0),
    ("count", True), ("source", 7), ("schema", "repro-uplink-frame/0"),
])
def test_wrongly_typed_header_field_rejects_the_frame(key, value):
    payload = _frame([_line(_row(0))], **{key: value})
    assert decode_frame(payload) is None
    _check(payload)
