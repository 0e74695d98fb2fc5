"""The per-record ``ChainStateStore.apply`` shipped until PR 14.

Production folds wire rows only through ``ChainStateStore.apply_batch``;
this is the scalar method it was proven against, moved here as a free
function over :class:`TelemetryRecord` objects.  It returns an
``ApplyOutcome`` for *every* record (``apply_batch`` materializes only
the flagged ones -- ``AlertEngine.observe`` is a no-op for the rest).
Oracle of ``tests/test_batched_store.py``; :func:`apply_batch_scalar`
is the scalar ``ChainStateStore.apply_batch`` that
``tests/_differential.py`` substitutes for the fleet-level differential.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.telemetry.records import RecordKind, TelemetryRecord
from repro.telemetry.store import (
    WINDOW_OVER_FRACTION,
    ApplyOutcome,
    ChainStateStore,
    _SegmentState,
)


def apply_scalar(
    store: ChainStateStore, record: TelemetryRecord
) -> ApplyOutcome:
    """Fold one record into *store*; return the produced facts."""
    outcome = ApplyOutcome(record)
    config = store.config
    store.applied += 1

    source = store.source_state(record.source)
    source.records += 1
    if record.timestamp_ns > source.last_seen_ns:
        source.last_seen_ns = record.timestamp_ns
    source.gap_open = False
    seq = record.seq
    if seq > source.last_seq:
        # Emitter seqs start at 0, so skipped numbers -- including
        # before the first record we ever saw -- open a gap.
        if seq > source.last_seq + 1:
            outcome.seq_gap = seq - source.last_seq - 1
            source.seq_gaps += outcome.seq_gap
            source.note_missing(source.last_seq + 1, seq)
        source.last_seq = seq
    elif seq in source.missing:
        # A late arrival filled a counted gap: it was reordering,
        # not loss -- heal the gap count.
        source.missing.discard(seq)
        source.seq_gaps -= 1
        source.reorders += 1
    else:
        source.duplicates += 1

    kind = record.kind
    if kind is RecordKind.SEGMENT:
        state = store.chain_state(record.source, record.chain)
        state.records += 1
        if record.activation > state.last_activation:
            state.last_activation = record.activation
        seg = state.segments.get(record.segment)
        if seg is None:
            seg = _SegmentState(
                alpha=config.alpha,
                budget_ns=config.budget_for(record.segment),
            )
            state.segments[record.segment] = seg
        verdict = record.verdict
        seg.verdicts[verdict] = seg.verdicts.get(verdict, 0) + 1
        latency = record.latency_ns
        if latency is not None:
            seg.hist.add(latency)
            if seg.budget_ns is not None:
                seg.win_records += 1
                if latency > seg.budget_ns:
                    seg.win_over += 1
                if seg.win_records >= config.window_records:
                    over = (
                        seg.win_over
                        > WINDOW_OVER_FRACTION * seg.win_records
                    )
                    seg.win_records = 0
                    seg.win_over = 0
                    if over:
                        seg.consec_over_windows += 1
                        if (seg.consec_over_windows
                                % config.latency_windows == 0):
                            outcome.latency_window_over_streak = (
                                seg.consec_over_windows
                            )
                    else:
                        seg.consec_over_windows = 0
    elif kind is RecordKind.CHAIN:
        state = store.chain_state(record.source, record.chain)
        state.records += 1
        if record.activation > state.last_activation:
            state.last_activation = record.activation
        automaton = state.automaton
        violated = automaton.record(record.verdict == "miss")
        outcome.margin = automaton.margin
        if violated:
            outcome.mk_violation = True
            state.margin_exhausted = True
        elif automaton.margin <= 0:
            if not state.margin_exhausted:
                state.margin_exhausted = True
                outcome.margin_exhausted_now = True
        else:
            state.margin_exhausted = False
    elif kind is RecordKind.MODE:
        source.level = record.level
    # EXCEPTION / HEARTBEAT only refresh the source state above.
    return outcome


#: Records folded by :func:`apply_batch_scalar` in this process, so a
#: differential test can prove the oracle really ran.
folded = 0


def apply_batch_scalar(
    store: ChainStateStore, rows: Sequence[Sequence]
) -> List[ApplyOutcome]:
    """``ChainStateStore.apply_batch`` folding one record at a time.

    Each wire row becomes a :class:`TelemetryRecord` first.  Returns an
    outcome for every record; the unflagged ones are no-ops for
    ``AlertEngine.observe``, so the alert log is the same.
    """
    global folded
    records = [TelemetryRecord.from_wire(row) for row in rows]
    folded += len(records)
    return [apply_scalar(store, record) for record in records]
