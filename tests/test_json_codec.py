"""The compact JSON codec of ``repro.schema`` against the stdlib.

``encode_json`` / ``encode_json_sorted`` must equal ``json.dumps(o,
separators=(",", ":"))`` without and with ``sort_keys``, and
``decode_json`` must equal ``json.loads``: the same value, or the same
exception type and message.  The sites that call the C objects inline
(spooled row lines, envelopes, WAL bodies, journal markers) are held to
the same contract.  The encoders share one circular-reference marker dict
that a failed encode would leave dirty, so every failure path must
leave it empty: an encode after a failure is still correct.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import schema
from repro.schema import decode_json, encode_json, encode_json_sorted
from repro.telemetry.uplink.transport import decode_envelope, encode_envelope
from repro.telemetry.uplink.wal import (
    RecordLog,
    WalConfig,
    WalSpooler,
    _body_fields,
    encode_entry,
)

COMPACT = (",", ":")

#: Characters JSON must escape, plus non-ASCII up to the astral planes.
_SPECIAL = st.sampled_from(
    "\x00\x08\x1f\"\\/\x7f\u00e9\u2028\u2029\ufeff\U0001f600"
)
TEXT = st.text(alphabet=st.one_of(st.characters(), _SPECIAL), max_size=12)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**63)),
    st.floats(allow_nan=False),
    st.just(-0.0),
    TEXT,
)
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)
#: Keys json.dumps coerces to strings; mixed types make sort_keys raise.
MIXED_KEY_DICTS = st.dictionaries(
    st.one_of(TEXT, st.integers(), st.floats(allow_nan=False), st.booleans(),
              st.none()),
    SCALARS, max_size=5,
)


def outcome(function, *args):
    """``("ok", repr(value))`` or ``("raised", type, message)``: repr
    tells ``-0.0`` from ``0.0`` and a ``nan`` from a number."""
    try:
        return "ok", repr(function(*args))
    except Exception as error:  # noqa: BLE001 - the type is the result
        return "raised", type(error), str(error)


def dumps(doc, sort_keys=False):
    return json.dumps(doc, separators=COMPACT, sort_keys=sort_keys)


def texts_of(doc):
    """*doc*'s JSON as written, padded, BOM-led, followed by more data,
    and cut short."""
    compact, spaced = dumps(doc), json.dumps(doc)
    yield compact
    yield spaced
    yield " \t\n" + compact + "\r\n "
    yield "\ufeff" + compact
    for tail in ("x", " 1", "{}", "]", ","):
        yield compact + tail
    for cut in {0, 1, len(compact) // 2, len(compact) - 1}:
        yield compact[:cut]


@settings(max_examples=300, deadline=None)
@given(st.one_of(DOCS, MIXED_KEY_DICTS))
def test_encoders_equal_json_dumps(doc):
    assert outcome(encode_json, doc) == outcome(dumps, doc)
    assert outcome(encode_json_sorted, doc) == outcome(dumps, doc, True)


@settings(max_examples=300, deadline=None)
@given(DOCS)
def test_decode_equals_json_loads(doc):
    for text in texts_of(doc):
        assert outcome(decode_json, text) == outcome(json.loads, text), text


@pytest.mark.parametrize("text", [
    "", " ", "nul", "NaN", "-Infinity", "1e400", "[1,]", '{"a" 1}',
    '"\\ud800"', '"\x01"', "[" * 50 + "]" * 50, b"[1]", bytearray(b"{}"),
    "\ufeff[1]".encode("utf-8"), 7, None,
])
def test_decode_edges_equal_json_loads(text):
    assert outcome(decode_json, text) == outcome(json.loads, text)


@settings(max_examples=200, deadline=None)
@given(DOCS)
def test_inline_parse_sites_equal_json_loads(doc):
    # decode_envelope and the WAL body parse run the scanner inline: a
    # dict / list exactly where json.loads returns one, else None.
    for text in texts_of(doc):
        try:
            loaded = json.loads(text)
        except ValueError:
            loaded = None
        envelope = loaded if isinstance(loaded, dict) else None
        fields = loaded if isinstance(loaded, list) else None
        assert repr(decode_envelope(encode_entry(text))) == repr(envelope)
        assert repr(_body_fields(text)) == repr(fields)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(TEXT, DOCS, max_size=4))
def test_inline_envelope_encode_equals_json_dumps(doc):
    assert encode_envelope(doc) == encode_entry(dumps(doc, True))


def _spooler(tmp_path):
    return WalSpooler.open_fresh(
        WalConfig(tmp_path / "wal", fsync="never"), "v"
    )


def test_record_line_equals_json_dumps(tmp_path):
    """The spool's inline encode of a row: CRC-framed ``json.dumps``."""
    row = ("segment", "vehicle-\u00e9\U0001f600", "front", "front/s0",
           2**70, -(2**64), "ok", "\x00\u2028", 5, 6)
    spooler = _spooler(tmp_path)
    spooler.append_many([row])
    [(seq, line)] = spooler.pending_entries()
    assert (seq, line) == (6, encode_entry(dumps(list(row))))
    assert decode_json(line[9:]) == list(row)
    spooler.close()


def _circular():
    doc = {"a": [1]}
    doc["a"].append(doc)
    return doc, lambda: doc["a"].pop()


def _unserialisable():
    doc = [1, [2, object()]]
    return doc, lambda: doc[1].pop()


def _unserialisable_value():
    doc = {"k": {1j}, "b": -0.0}
    return doc, lambda: doc.pop("k")


@pytest.mark.parametrize("make, error", [
    (_circular, ValueError),
    (_unserialisable, TypeError),
    (_unserialisable_value, TypeError),
])
@pytest.mark.parametrize("sort_keys", [False, True])
def test_failed_encode_raises_like_dumps_and_leaves_no_marker(
    make, error, sort_keys
):
    encode = encode_json_sorted if sort_keys else encode_json
    doc, repair = make()
    with pytest.raises(error):
        dumps(doc, sort_keys)
    with pytest.raises(error):
        encode(doc)
    assert schema.json_markers == {}
    # The same containers, repaired: a mark the failure left behind
    # would read as a circular reference now.
    repair()
    assert encode(doc) == dumps(doc, sort_keys)


def test_inline_encode_sites_clear_the_markers_on_failure(tmp_path):
    # The spool refuses a row it cannot encode before encoding any.
    row = ["segment", "v", object(), "c/s0", 1, 2, "ok", "", 3, 4]
    spooler = _spooler(tmp_path)
    with pytest.raises(ValueError):
        spooler.append_many([row])
    assert schema.json_markers == {}
    row[2] = "c"
    spooler.append_many([row])
    assert spooler.pending_entries() == [(4, encode_entry(dumps(row)))]
    spooler.close()
    envelope = {"schema": "x", "bad": [math.pi, object()]}
    with pytest.raises(TypeError):
        encode_envelope(envelope)
    assert schema.json_markers == {}
    envelope["bad"].pop()
    assert encode_envelope(envelope) == encode_entry(dumps(envelope, True))
    log = RecordLog(tmp_path / "journal.log", fsync="never")
    with pytest.raises(TypeError):
        log.append_marker(object(), 3)
    assert schema.json_markers == {}
    log.append_marker("v", 3)
    log.close()
    assert (tmp_path / "journal.log").read_text().endswith(
        encode_entry(dumps(["~wm", "v", 3])) + "\n"
    )
