"""The per-record ``ChainStateStore.apply`` shipped until PR 14.

Production folds wire rows only through ``ChainStateStore.apply_batch``;
this is the scalar method it was proven against, moved here as a free
function over one wire row at a time.  It returns an
``ApplyOutcome`` for *every* record (``apply_batch`` materializes only
the flagged ones -- ``AlertEngine.observe`` is a no-op for the rest).
Oracle of ``tests/test_batched_store.py``; :func:`apply_batch_scalar`
is the scalar ``ChainStateStore.apply_batch`` that
``tests/_differential.py`` substitutes for the fleet-level differential.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.telemetry.records import KINDS
from repro.telemetry.store import (
    WINDOW_OVER_FRACTION,
    ApplyOutcome,
    ChainStateStore,
    _SegmentState,
)


def apply_scalar(store: ChainStateStore, row: Sequence) -> ApplyOutcome:
    """Fold one wire row into *store*; return the produced facts."""
    (kind, name, chain, segment, activation, latency, verdict, level,
     timestamp, seq) = row
    if kind not in KINDS:
        raise ValueError(f"unknown record kind {kind!r}")
    outcome = ApplyOutcome(row)
    config = store.config
    store.applied += 1

    source = store.source_state(name)
    source.records += 1
    if timestamp > source.last_seen_ns:
        source.last_seen_ns = timestamp
    source.gap_open = False
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

    if kind == "segment":
        state = store.chain_state(name, chain)
        state.records += 1
        if activation > state.last_activation:
            state.last_activation = activation
        seg = state.segments.get(segment)
        if seg is None:
            seg = _SegmentState(
                alpha=config.alpha,
                budget_ns=config.budget_for(segment),
            )
            state.segments[segment] = seg
        seg.verdicts[verdict] = seg.verdicts.get(verdict, 0) + 1
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
    elif kind == "chain":
        state = store.chain_state(name, chain)
        state.records += 1
        if activation > state.last_activation:
            state.last_activation = activation
        automaton = state.automaton
        violated = automaton.record(verdict == "miss")
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
    elif kind == "mode":
        source.level = level
    # EXCEPTION / HEARTBEAT only refresh the source state above.
    return outcome


#: Records folded by :func:`apply_batch_scalar` in this process, so a
#: differential test can prove the oracle really ran.
folded = 0


def apply_batch_scalar(
    store: ChainStateStore, rows: Sequence[Sequence]
) -> List[ApplyOutcome]:
    """``ChainStateStore.apply_batch`` folding one row at a time.

    Returns an outcome for every row; the unflagged ones are no-ops for
    ``AlertEngine.observe``, so the alert log is the same.
    """
    global folded
    folded += len(rows)
    return [apply_scalar(store, row) for row in rows]
