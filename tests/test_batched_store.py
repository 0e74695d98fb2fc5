"""Hypothesis: the one-pass row fold is the scalar fold, bit for bit.

:meth:`ChainStateStore.apply_batch` folds wire rows in one in-order
pass; the oracle ``tests/_reference/scalar_store.py::apply_scalar``
folds one row at a time.  For any generated row
stream and *any* chunking of it, the two must leave byte-identical
store snapshots, the same flagged outcomes (the scalar fold's outcomes
filtered to the ones the alert engine acts on) and the same alert log.

The streams mix all five record kinds over two sources, two chains and
two segments on two shards, with duplicates, seq gaps and late rows
that heal a gap; windows of four records and a (1,4) automaton make
budget windows close on chunk edges (chunks of one row close every
window there) and the (m,k) margin exhaust and recover within a few
rows.  A key's first touch lands wherever the stream first names it,
mid-chunk as often as not, and a stream may be cut in two with the
second half folded onto a store restored from the first half's
snapshot.  Every chunk edge also polls the alert engine past the
heartbeat gap, so the next row of a silent source must close the gap.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from _reference.scalar_store import apply_scalar

from repro.telemetry.alerts import HEARTBEAT_GAP_NS, AlertEngine
from repro.telemetry.store import ChainStateStore, StoreConfig

SOURCES = ("v0", "v1")
CHAINS = ("alpha", "beta")
SEGMENTS = ("s0", "s1")
LEVELS = ("nominal", "degraded", "safe")
KINDS = ("segment", "chain", "mode", "heartbeat", "exception")
#: How a row's seq relates to its source's last one.
SEQ_STEPS = ("next", "gap", "duplicate", "late")

#: Tight windows + budgets so short generated streams reach the margin-
#: exhaustion, window-rollover and streak rules; two shards so multi-
#: key chunks cross shards essentially always.
STORE_CONFIG = dict(
    n_shards=2,
    default_mk=(1, 4),
    mk_by_chain={"beta": (2, 5)},
    default_budget_ns=500,
    window_records=4,
    latency_windows=2,
)

EVENTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),  # source
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=1),  # chain
        st.integers(min_value=0, max_value=1),  # segment
        st.booleans(),                          # miss / over budget
        st.sampled_from(SEQ_STEPS),
        st.integers(min_value=0, max_value=2),  # level
    ),
    max_size=48,
)


def rows_of(events):
    """Deterministic wire rows from symbolic events.

    A ``gap`` skips one or two seqs, which stay open; a ``late`` row
    takes the oldest open seq of its source (a reorder that heals the
    gap) or, with none open, repeats the last seq like ``duplicate``.
    """
    rows = []
    last = {source: -1 for source in SOURCES}
    open_gaps = {source: [] for source in SOURCES}
    for i, (s, kind, c, g, flag, step, lvl) in enumerate(events):
        source = SOURCES[s]
        if step == "late" and open_gaps[source]:
            seq = open_gaps[source].pop(0)
        elif step in ("late", "duplicate"):
            seq = max(last[source], 0)
        else:
            skip = 1 + i % 2 if step == "gap" else 0
            first = last[source] + 1
            open_gaps[source] += range(first, first + skip)
            seq = last[source] = first + skip
        keyed = kind in ("segment", "chain")
        rows.append((
            kind,
            source,
            CHAINS[c] if keyed else "",
            SEGMENTS[g] if kind == "segment" else "",
            i,
            (900 if flag else 100) if kind == "segment" else None,
            ("miss" if flag else "ok") if keyed else "",
            LEVELS[lvl] if kind == "mode" else "",
            1_000 * (i + 1),
            seq,
        ))
    return rows


def cuts(draw, n):
    """Chunk bounds of a length-*n* stream: random cuts, or one row per
    chunk (every budget window then closes on a chunk edge)."""
    if n == 0:
        return []
    if draw(st.booleans()):
        points = draw(st.lists(
            st.integers(min_value=1, max_value=n), unique=True, max_size=6
        ))
    else:
        points = range(1, n)
    bounds = [0] + sorted(points) + [n]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def _facts(outcome):
    return (
        tuple(outcome.row), outcome.seq_gap, outcome.mk_violation,
        outcome.margin, outcome.margin_exhausted_now,
        outcome.latency_window_over_streak,
    )


def _flagged(outcome):
    return bool(
        outcome.seq_gap or outcome.mk_violation
        or outcome.margin_exhausted_now or outcome.latency_window_over_streak
    )


def poll_past_gap(engine, store, rows, hi):
    """Poll after row *hi* - 1, later than any heartbeat gap allows."""
    engine.poll(rows[hi - 1][8] + HEARTBEAT_GAP_NS + 1, store)


def scalar_fold(rows, chunks=()):
    """The oracle: every row through ``apply_scalar``, in order, polled
    at the same chunk edges."""
    store = ChainStateStore(StoreConfig(**STORE_CONFIG))
    engine = AlertEngine()
    flagged = []
    for lo, hi in chunks or [(0, len(rows))]:
        for row in rows[lo:hi]:
            outcome = apply_scalar(store, row)
            engine.observe(outcome)
            if _flagged(outcome):
                flagged.append(_facts(outcome))
        if chunks:
            poll_past_gap(engine, store, rows, hi)
    return store, engine, flagged


def snapshot_bytes(store):
    return json.dumps(store.snapshot(), sort_keys=True).encode()


@given(EVENTS, st.data())
@settings(max_examples=150, deadline=None)
def test_apply_batch_equals_looped_apply(events, data):
    """Any chunking, optionally across a snapshot/restore at a chunk
    edge, folds to the scalar oracle's bytes, facts and alerts."""
    rows = rows_of(events)
    chunks = cuts(data.draw, len(rows))
    expected_store, expected_engine, expected_flagged = scalar_fold(
        rows, chunks
    )

    store = ChainStateStore(StoreConfig(**STORE_CONFIG))
    engine = AlertEngine()
    flagged = []
    restore_at = data.draw(st.integers(min_value=0, max_value=len(chunks)))
    for index, (lo, hi) in enumerate(chunks):
        if index == restore_at:
            store = ChainStateStore.restore(
                json.loads(json.dumps(store.snapshot()))
            )
        for outcome in store.apply_batch(rows[lo:hi]):
            assert _flagged(outcome)
            engine.observe(outcome)
            flagged.append(_facts(outcome))
        poll_past_gap(engine, store, rows, hi)

    assert snapshot_bytes(store) == snapshot_bytes(expected_store)
    assert flagged == expected_flagged
    assert engine.log.to_jsonl() == expected_engine.log.to_jsonl()
    assert store.applied == expected_store.applied == len(rows)
    assert store.keys() == expected_store.keys()


@given(EVENTS)
@settings(max_examples=40, deadline=None)
def test_single_batch_round_trip(events):
    """The whole stream as one fold, its rows as the JSON lists a
    decoded uplink frame or journal line carries."""
    rows = rows_of(events)
    expected_store, _engine, expected_flagged = scalar_fold(rows)
    store = ChainStateStore(StoreConfig(**STORE_CONFIG))
    decoded = json.loads(json.dumps(rows))
    flagged = [_facts(outcome) for outcome in store.apply_batch(decoded)]
    assert snapshot_bytes(store) == snapshot_bytes(expected_store)
    assert flagged == expected_flagged
