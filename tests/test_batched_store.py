"""Hypothesis: the batched telemetry engine is the scalar engine, bit for bit.

Two layers of the columnar hot path are property-tested against their
scalar references over arbitrary inputs *and* arbitrary chunkings:

* :meth:`MKAutomaton.record_many` vs a loop of :meth:`record` -- same
  per-step violation flags, same per-step margins, same bit-packed
  window state afterwards.  Chunk sizes straddle ``_VECTOR_MIN`` so
  both the numpy path and the scalar fallback are exercised, and
  chunk boundaries land mid-window (the regression-prone case: the
  vectorized update must reconstruct the partially-filled window
  exactly).
* :meth:`ChainStateStore.apply_batch` vs a loop of the scalar oracle
  ``tests/_reference/scalar_store.py::apply_scalar`` --
  byte-identical store snapshots and byte-identical alert logs after
  feeding both outcome streams through an :class:`AlertEngine`.
  Streams mix every record kind across several (source, chain) keys on
  a small shard count, so batches routinely cross shards, repeat seqs
  (duplicates), skip seqs (gaps), and roll latency windows over chunk
  boundaries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from _reference.scalar_store import apply_scalar

from repro.telemetry.alerts import AlertEngine
from repro.core.weakly_hard import _VECTOR_MIN, MKAutomaton
from repro.telemetry.batch import RecordBatch
from repro.telemetry.records import RecordKind, TelemetryRecord
from repro.telemetry.store import ChainStateStore, StoreConfig

# ----------------------------------------------------------------------
# (m,k) automaton: record_many == looped record
# ----------------------------------------------------------------------
MISSES = st.lists(st.booleans(), max_size=4 * _VECTOR_MIN)


def chunkings(draw, n):
    """Random split points for a length-*n* stream (possibly none)."""
    if n == 0:
        return []
    cuts = draw(
        st.lists(
            st.integers(min_value=1, max_value=n), unique=True, max_size=6
        )
    )
    bounds = [0] + sorted(cuts) + [n]
    return [
        (bounds[i], bounds[i + 1])
        for i in range(len(bounds) - 1)
        if bounds[i] < bounds[i + 1]
    ]


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=11),
    MISSES,
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_record_many_equals_looped_record(k, m_offset, misses, data):
    m = 1 + m_offset % k  # 1 <= m <= k
    scalar = MKAutomaton((m, k))
    batched = MKAutomaton((m, k))

    scalar_flags, scalar_margins = [], []
    for miss in misses:
        scalar_flags.append(scalar.record(miss))
        scalar_margins.append(m - scalar.misses_in_window)

    batched_flags, batched_margins = [], []
    for lo, hi in chunkings(data.draw, len(misses)):
        flags, margins = batched.record_many(misses[lo:hi])
        batched_flags.extend(flags)
        batched_margins.extend(margins)

    assert batched_flags == scalar_flags
    assert batched_margins == scalar_margins
    # Identical bit-packed window state, counters, and snapshot.
    assert batched.snapshot() == scalar.snapshot()
    assert batched.window_bits() == scalar.window_bits()
    assert batched.margin == scalar.margin
    assert batched.violated == scalar.violated


# ----------------------------------------------------------------------
# Store: apply_batch == looped apply
# ----------------------------------------------------------------------
SOURCES = ("v0", "v1")
CHAINS = ("alpha", "beta")
SEGMENTS = ("s0", "s1")
LEVELS = ("nominal", "degraded", "safe")
KINDS = (
    RecordKind.SEGMENT,
    RecordKind.CHAIN,
    RecordKind.MODE,
    RecordKind.HEARTBEAT,
    RecordKind.EXCEPTION,
)

#: Tight windows + budgets so short generated streams reach the margin-
#: exhaustion, window-rollover, and streak rules; two shards so multi-
#: key batches cross shards essentially always.
STORE_CONFIG = dict(
    n_shards=2,
    default_mk=(1, 4),
    mk_by_chain={"beta": (2, 5)},
    default_budget_ns=500,
    window_records=4,
    latency_windows=2,
)

RAW_EVENTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),  # source
        st.integers(min_value=0, max_value=4),  # kind
        st.integers(min_value=0, max_value=1),  # chain
        st.integers(min_value=0, max_value=1),  # segment
        st.booleans(),                          # miss / over budget
        st.integers(min_value=0, max_value=2),  # seq step (0 = duplicate)
        st.integers(min_value=0, max_value=2),  # level
    ),
    max_size=3 * _VECTOR_MIN,
)


def materialize(events):
    """Deterministic record stream from symbolic event tuples."""
    records = []
    seq = {source: -1 for source in SOURCES}
    for i, (s, kind_i, c, g, flag, step, lvl) in enumerate(events):
        source = SOURCES[s]
        seq[source] += step
        kind = KINDS[kind_i]
        records.append(
            TelemetryRecord(
                kind=kind,
                source=source,
                chain=CHAINS[c] if kind in (RecordKind.SEGMENT, RecordKind.CHAIN) else "",
                segment=SEGMENTS[g] if kind is RecordKind.SEGMENT else "",
                activation=i,
                latency_ns=(900 if flag else 100)
                if kind is RecordKind.SEGMENT else None,
                verdict=("miss" if flag else "ok")
                if kind in (RecordKind.SEGMENT, RecordKind.CHAIN) else "",
                level=LEVELS[lvl] if kind is RecordKind.MODE else "",
                timestamp_ns=1_000 * (i + 1),
                seq=max(seq[source], 0),
            )
        )
    return records


def drain_alerts(engine):
    return engine.log.to_jsonl()


@given(RAW_EVENTS, st.data())
@settings(max_examples=80, deadline=None)
def test_apply_batch_equals_looped_apply(events, data):
    records = materialize(events)

    scalar_store = ChainStateStore(StoreConfig(**STORE_CONFIG))
    scalar_alerts = AlertEngine()
    for record in records:
        scalar_alerts.observe(apply_scalar(scalar_store, record))

    batched_store = ChainStateStore(StoreConfig(**STORE_CONFIG))
    batched_alerts = AlertEngine()
    for lo, hi in chunkings(data.draw, len(records)):
        batch = RecordBatch.from_records(records[lo:hi])
        for outcome in batched_store.apply_batch(batch):
            batched_alerts.observe(outcome)

    assert batched_store.snapshot() == scalar_store.snapshot()
    assert drain_alerts(batched_alerts) == drain_alerts(scalar_alerts)
    assert batched_store.applied == scalar_store.applied
    assert len(batched_store) == len(scalar_store)


@given(RAW_EVENTS)
@settings(max_examples=40, deadline=None)
def test_single_batch_round_trip(events):
    """Whole stream as one batch (the columnar ingest path's shape)."""
    records = materialize(events)
    batch = RecordBatch.from_records(records)
    assert batch.to_records() == records

    scalar_store = ChainStateStore(StoreConfig(**STORE_CONFIG))
    for record in records:
        apply_scalar(scalar_store, record)
    batched_store = ChainStateStore(StoreConfig(**STORE_CONFIG))
    if len(batch):
        batched_store.apply_batch(batch)
    assert batched_store.snapshot() == scalar_store.snapshot()
