"""The sharded in-memory chain-state store.

State is keyed by ``(source, chain)`` -- one entry per monitored event
chain per vehicle/process -- and partitioned over ``n_shards`` hash
shards.  Sharding uses ``zlib.crc32`` (stable across interpreters and
runs, unlike ``hash``), so a snapshot taken on one host restores onto
another with identical placement, and a future multi-worker deployment
can assign shards to workers without rehashing.  A key is placed on its
shard once, on first touch; the fold finds it through flat
``(source, chain)`` / ``(source, chain, segment)`` indexes.

Per key the store maintains exactly the paper-shaped online state, none
of which grows with the record count:

- an incremental (m,k) window automaton
  (:class:`~repro.core.weakly_hard.MKAutomaton`) over chain verdicts;
- one streaming latency histogram per segment
  (:class:`~repro.analysis.histogram.StreamingHistogram`: p50/p95/p99
  without raw samples);
- latency-over-budget evaluation windows (fixed-size record windows;
  a window is "over" when more than 5% of its samples exceeded the
  segment budget -- i.e. its exact windowed p95 is over budget);
- verdict counters.

Per source the store tracks heartbeat (last-seen timestamp), sequence
continuity (gaps/reorders from the per-source ``seq`` field) and the
last reported degradation level.

:meth:`ChainStateStore.apply_batch` folds a list of wire rows (the
shape every producer already holds: decoded uplink frames, the ingest
journal, the load generator, the campaign replay) in one in-order pass
and returns plain facts, one :class:`ApplyOutcome` per flagged record;
converting facts into alerts is the
:class:`~repro.telemetry.alerts.AlertEngine`'s business.
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.weakly_hard import MKAutomaton, MKConstraint
from repro.schema import SchemaVersionError
from repro.analysis.histogram import DEFAULT_ALPHA, StreamingHistogram

#: Snapshot schema identifier.
SNAPSHOT_SCHEMA = "repro-telemetry-store/1"

#: Fraction of a latency window allowed over budget before the window
#: counts as "over" (5% == the windowed p95 crossed the budget).
WINDOW_OVER_FRACTION = 0.05

#: Per-source cap on tracked open-gap sequence numbers.  A late record
#: filling a tracked gap heals it (``seq_gaps`` decremented, counted as
#: a reorder); gaps evicted from the window stay counted forever and a
#: very late filler is then classed as a duplicate -- bounded memory
#: wins over perfect attribution at that distance.
MAX_TRACKED_MISSING = 4096


def _warn_unknown_fields(context: str, data: dict, known: frozenset) -> None:
    """Tolerate additive schema evolution: warn, never fail."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        warnings.warn(
            f"{context}: ignoring unknown field(s) {unknown} "
            f"(written by a newer build?)",
            stacklevel=3,
        )


@dataclass
class StoreConfig:
    """Shape and policy knobs of the store."""

    n_shards: int = 8
    #: Relative accuracy of the latency sketches.
    alpha: float = DEFAULT_ALPHA
    #: (m,k) applied to chains without an explicit entry.
    default_mk: Tuple[int, int] = (2, 10)
    #: chain name -> (m, k).
    mk_by_chain: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: segment name -> latency budget in ns (over-budget rule input).
    budget_by_segment: Dict[str, int] = field(default_factory=dict)
    #: Budget for segments without an explicit entry (None = unchecked).
    default_budget_ns: Optional[int] = None
    #: Records per latency evaluation window.
    window_records: int = 20
    #: Consecutive over-budget windows before the latency rule trips.
    latency_windows: int = 3

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.window_records < 1:
            raise ValueError("window_records must be >= 1")
        if self.latency_windows < 1:
            raise ValueError("latency_windows must be >= 1")
        MKConstraint(*self.default_mk)  # validate eagerly
        for chain, mk in self.mk_by_chain.items():
            MKConstraint(*mk)

    def mk_for(self, chain: str) -> Tuple[int, int]:
        return self.mk_by_chain.get(chain, self.default_mk)

    def budget_for(self, segment: str) -> Optional[int]:
        return self.budget_by_segment.get(segment, self.default_budget_ns)

    def to_json(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "alpha": self.alpha,
            "default_mk": list(self.default_mk),
            "mk_by_chain": {c: list(mk) for c, mk in sorted(self.mk_by_chain.items())},
            "budget_by_segment": dict(sorted(self.budget_by_segment.items())),
            "default_budget_ns": self.default_budget_ns,
            "window_records": self.window_records,
            "latency_windows": self.latency_windows,
        }

    _KNOWN_FIELDS = frozenset((
        "n_shards", "alpha", "default_mk", "mk_by_chain",
        "budget_by_segment", "default_budget_ns", "window_records",
        "latency_windows",
    ))

    @classmethod
    def from_json(cls, data: dict) -> "StoreConfig":
        _warn_unknown_fields("store config", data, cls._KNOWN_FIELDS)
        return cls(
            n_shards=data["n_shards"],
            alpha=data["alpha"],
            default_mk=tuple(data["default_mk"]),
            mk_by_chain={c: tuple(mk) for c, mk in data["mk_by_chain"].items()},
            budget_by_segment=dict(data["budget_by_segment"]),
            default_budget_ns=data["default_budget_ns"],
            window_records=data["window_records"],
            latency_windows=data["latency_windows"],
        )


class _SegmentState:
    """Per-(key, segment) latency state."""

    __slots__ = (
        "hist", "budget_ns", "win_records", "win_over",
        "consec_over_windows", "verdicts",
    )

    def __init__(self, alpha: float, budget_ns: Optional[int]):
        self.hist = StreamingHistogram(alpha=alpha)
        self.budget_ns = budget_ns
        #: Samples seen / over budget in the currently filling window.
        self.win_records = 0
        self.win_over = 0
        #: Consecutive closed windows whose p95 was over budget.
        self.consec_over_windows = 0
        self.verdicts: Dict[str, int] = {}

    def to_json(self) -> dict:
        return {
            "hist": self.hist.snapshot(),
            "budget_ns": self.budget_ns,
            "win_records": self.win_records,
            "win_over": self.win_over,
            "consec_over_windows": self.consec_over_windows,
            "verdicts": dict(sorted(self.verdicts.items())),
        }

    _KNOWN_FIELDS = frozenset((
        "hist", "budget_ns", "win_records", "win_over",
        "consec_over_windows", "verdicts",
    ))

    @classmethod
    def from_json(cls, data: dict, alpha: float) -> "_SegmentState":
        _warn_unknown_fields("segment state", data, cls._KNOWN_FIELDS)
        state = cls(alpha=alpha, budget_ns=data["budget_ns"])
        state.hist = StreamingHistogram.restore(data["hist"])
        state.win_records = data["win_records"]
        state.win_over = data["win_over"]
        state.consec_over_windows = data["consec_over_windows"]
        state.verdicts = dict(data["verdicts"])
        return state


class ChainState:
    """Everything the store knows about one (source, chain) key."""

    __slots__ = (
        "automaton", "segments", "records", "last_activation",
        "margin_exhausted",
    )

    def __init__(self, mk: Tuple[int, int]):
        self.automaton = MKAutomaton(mk)
        self.segments: Dict[str, _SegmentState] = {}
        self.records = 0
        self.last_activation = -1
        #: Dedup flag for the margin-exhausted alert (reset on recovery).
        self.margin_exhausted = False

    def to_json(self) -> dict:
        return {
            "automaton": self.automaton.snapshot(),
            "segments": {
                name: self.segments[name].to_json()
                for name in sorted(self.segments)
            },
            "records": self.records,
            "last_activation": self.last_activation,
            "margin_exhausted": self.margin_exhausted,
        }

    _KNOWN_FIELDS = frozenset((
        "automaton", "segments", "records", "last_activation",
        "margin_exhausted",
    ))

    @classmethod
    def from_json(cls, data: dict, alpha: float) -> "ChainState":
        _warn_unknown_fields("chain state", data, cls._KNOWN_FIELDS)
        automaton = MKAutomaton.restore(data["automaton"])
        state = cls((automaton.m, automaton.k))
        state.automaton = automaton
        state.segments = {
            name: _SegmentState.from_json(seg, alpha)
            for name, seg in data["segments"].items()
        }
        state.records = data["records"]
        state.last_activation = data["last_activation"]
        state.margin_exhausted = data["margin_exhausted"]
        return state


class SourceState:
    """Per-source liveness and stream-continuity state.

    Sequence continuity distinguishes three outcomes for an arriving
    ``seq`` (the lossy uplink makes all three reachable):

    - ahead of ``last_seq``: any skipped numbers open a *gap* (tracked
      in ``missing``, bounded by :data:`MAX_TRACKED_MISSING`);
    - filling a tracked gap: a late *reorder* -- the gap heals
      (``seq_gaps`` decremented), it was delay, not loss;
    - anything else at-or-below ``last_seq``: a *duplicate* -- counted,
      and it must never inflate gap or reorder statistics.
    """

    __slots__ = (
        "records", "last_seen_ns", "last_seq", "seq_gaps", "reorders",
        "duplicates", "missing", "level", "gap_open",
    )

    def __init__(self):
        self.records = 0
        self.last_seen_ns = -1
        self.last_seq = -1
        self.seq_gaps = 0
        self.reorders = 0
        self.duplicates = 0
        #: Open-gap seqs still healable by a late arrival (bounded).
        self.missing: set = set()
        self.level = ""
        #: Dedup flag for the heartbeat-gap alert (reset on traffic).
        self.gap_open = False

    def note_missing(self, lo: int, hi: int) -> None:
        """Track ``[lo, hi)`` as open gaps, evicting the oldest beyond
        the cap (evicted gaps stay counted, they just cannot heal)."""
        if hi - lo > MAX_TRACKED_MISSING:
            lo = hi - MAX_TRACKED_MISSING
        missing = self.missing
        missing.update(range(lo, hi))
        overflow = len(missing) - MAX_TRACKED_MISSING
        if overflow > 0:
            for seq in sorted(missing)[:overflow]:
                missing.discard(seq)

    def to_json(self) -> dict:
        return {
            "records": self.records,
            "last_seen_ns": self.last_seen_ns,
            "last_seq": self.last_seq,
            "seq_gaps": self.seq_gaps,
            "reorders": self.reorders,
            "duplicates": self.duplicates,
            "missing": sorted(self.missing),
            "level": self.level,
            "gap_open": self.gap_open,
        }

    _KNOWN_FIELDS = frozenset((
        "records", "last_seen_ns", "last_seq", "seq_gaps", "reorders",
        "duplicates", "missing", "level", "gap_open",
    ))

    @classmethod
    def from_json(cls, data: dict) -> "SourceState":
        _warn_unknown_fields("source state", data, cls._KNOWN_FIELDS)
        state = cls()
        state.records = data["records"]
        state.last_seen_ns = data["last_seen_ns"]
        state.last_seq = data["last_seq"]
        state.seq_gaps = data["seq_gaps"]
        state.reorders = data["reorders"]
        # Additive fields: snapshots from older builds omit them.
        state.duplicates = data.get("duplicates", 0)
        state.missing = set(data.get("missing", ()))
        state.level = data["level"]
        state.gap_open = data["gap_open"]
        return state


class ApplyOutcome:
    """Plain facts one applied wire row produced (alert-engine input)."""

    __slots__ = (
        "row", "mk_violation", "margin", "margin_exhausted_now",
        "latency_window_over_streak", "seq_gap",
    )

    def __init__(self, row: Sequence):
        self.row = row
        #: The chain's (m,k) window just violated.
        self.mk_violation = False
        #: Remaining miss budget after this record (None: no automaton).
        self.margin: Optional[int] = None
        #: The margin just reached zero (first time this episode).
        self.margin_exhausted_now = False
        #: N consecutive over-budget windows just completed (the streak
        #: length, reported only at exact multiples of the threshold).
        self.latency_window_over_streak = 0
        #: Sequence numbers skipped right before this record.
        self.seq_gap = 0


class ChainStateStore:
    """Sharded (source, chain) -> :class:`ChainState` map."""

    def __init__(self, config: Optional[StoreConfig] = None):
        self.config = config or StoreConfig()
        self.shards: List[Dict[Tuple[str, str], ChainState]] = [
            {} for _ in range(self.config.n_shards)
        ]
        self.sources: Dict[str, SourceState] = {}
        self.applied = 0
        #: Flat indexes over the shards, filled on a key's first touch:
        #: ``(source, chain)`` -> its state and ``(source, chain,
        #: segment)`` -> ``(chain state, segment state)``.  The fold
        #: looks keys up here; the shards are the snapshot layout.
        self._chains: Dict[Tuple[str, str], ChainState] = {}
        self._segments: Dict[
            Tuple[str, str, str], Tuple[ChainState, _SegmentState]
        ] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def shard_index(source: str, chain: str, n_shards: int) -> int:
        """Deterministic shard placement (crc32, not ``hash``)."""
        return zlib.crc32(f"{source}\x1f{chain}".encode()) % n_shards

    def chain_state(self, source: str, chain: str) -> ChainState:
        """The state of one key, created on first touch."""
        state = self._chains.get((source, chain))
        if state is None:
            state = ChainState(self.config.mk_for(chain))
            self._index(source, chain, state)
        return state

    def _index(self, source: str, chain: str, state: ChainState) -> None:
        """Place a new key on its shard and in the flat indexes."""
        key = (source, chain)
        n_shards = self.config.n_shards
        self.shards[self.shard_index(source, chain, n_shards)][key] = state
        self._chains[key] = state
        for name, seg in state.segments.items():
            self._segments[(source, chain, name)] = (state, seg)

    def _segment_state(
        self, source: str, chain: str, segment: str
    ) -> Tuple[ChainState, _SegmentState]:
        """The flat-index entry of one segment key, made on first touch."""
        state = self.chain_state(source, chain)
        seg = state.segments.get(segment)
        if seg is None:
            seg = _SegmentState(
                alpha=self.config.alpha,
                budget_ns=self.config.budget_for(segment),
            )
            state.segments[segment] = seg
        entry = (state, seg)
        self._segments[(source, chain, segment)] = entry
        return entry

    def source_state(self, source: str) -> SourceState:
        state = self.sources.get(source)
        if state is None:
            state = SourceState()
            self.sources[source] = state
        return state

    def keys(self) -> List[Tuple[str, str]]:
        """All (source, chain) keys, sorted."""
        return sorted(self._chains)

    def __len__(self) -> int:
        return len(self._chains)

    # ------------------------------------------------------------------
    def apply_batch(self, rows: Sequence[Sequence]) -> List[ApplyOutcome]:
        """Fold wire rows into the store in order; return *flagged* outcomes.

        A row is the wire record ``[kind, source, chain, segment,
        activation, latency_ns, verdict, level, timestamp_ns, seq]`` with
        ``kind`` its wire string.  One pass in row order unpacks each row
        once and runs, in turn, the per-source sequence/liveness logic
        and the row's key: a segment row's verdict counter, histogram
        (:meth:`~repro.analysis.histogram.StreamingHistogram.add`,
        inline) and budget window; a chain row's
        :meth:`~repro.core.weakly_hard.MKAutomaton.record`.  Keys are
        found in the flat indexes, so past a key's first touch a segment
        row makes no Python call and a chain row one.

        State-for-state equal to folding every row through the
        per-record oracle ``tests/_reference/scalar_store.py``, however
        the stream is chunked (``tests/test_batched_store.py`` and the
        differential suite prove byte-identical snapshots and alert
        logs).  Only records whose facts the alert engine acts on
        (sequence gap, (m,k) violation, margin exhausted, latency-window
        streak) get an :class:`ApplyOutcome`, in row order, so feeding
        them to :meth:`~repro.telemetry.alerts.AlertEngine.observe`
        yields the same alert log -- ``observe`` is a no-op for every
        unflagged record.
        """
        config = self.config
        window_records = config.window_records
        latency_windows = config.latency_windows
        sources = self.sources
        chains = self._chains
        segments = self._segments
        log = math.log
        ceil = math.ceil
        flagged: List[ApplyOutcome] = []
        src_name: Optional[str] = None
        src: Optional[SourceState] = None
        self.applied += len(rows)
        for row in rows:
            (kind, name, chain, segment, activation, latency, verdict,
             level, ts, seq) = row
            if name != src_name:
                src_name = name
                src = sources.get(name)
                if src is None:
                    src = sources[name] = SourceState()
            src.records += 1
            if ts > src.last_seen_ns:
                src.last_seen_ns = ts
            src.gap_open = False
            out = None
            last = src.last_seq
            if seq > last:
                if seq > last + 1:
                    gap = seq - last - 1
                    src.seq_gaps += gap
                    src.note_missing(last + 1, seq)
                    out = ApplyOutcome(row)
                    out.seq_gap = gap
                src.last_seq = seq
            elif seq in src.missing:
                src.missing.discard(seq)
                src.seq_gaps -= 1
                src.reorders += 1
            else:
                src.duplicates += 1

            if kind == "segment":
                entry = segments.get((name, chain, segment))
                if entry is None:
                    entry = self._segment_state(name, chain, segment)
                state, seg = entry
                state.records += 1
                if activation > state.last_activation:
                    state.last_activation = activation
                counts = seg.verdicts
                counts[verdict] = counts.get(verdict, 0) + 1
                if latency is not None:
                    hist = seg.hist
                    hist.count += 1
                    hist.total += latency
                    if hist.min is None or latency < hist.min:
                        hist.min = latency
                    if hist.max is None or latency > hist.max:
                        hist.max = latency
                    if latency > 0:
                        index = ceil(log(latency) / hist._log_gamma)
                        if hist._gamma ** (index - 1) >= latency:
                            index -= 1
                        buckets = hist._buckets
                        buckets[index] = buckets.get(index, 0) + 1
                    else:
                        hist._zero += 1
                    budget = seg.budget_ns
                    if budget is not None:
                        win = seg.win_records + 1
                        over = seg.win_over
                        if latency > budget:
                            over += 1
                        if win < window_records:
                            seg.win_records = win
                            seg.win_over = over
                        else:
                            seg.win_records = 0
                            seg.win_over = 0
                            if over > WINDOW_OVER_FRACTION * win:
                                streak = seg.consec_over_windows + 1
                                seg.consec_over_windows = streak
                                if streak % latency_windows == 0:
                                    if out is None:
                                        out = ApplyOutcome(row)
                                    out.latency_window_over_streak = streak
                            else:
                                seg.consec_over_windows = 0
            elif kind == "chain":
                state = chains.get((name, chain))
                if state is None:
                    state = self.chain_state(name, chain)
                state.records += 1
                if activation > state.last_activation:
                    state.last_activation = activation
                automaton = state.automaton
                violated = automaton.record(verdict == "miss")
                margin = automaton.m - automaton.misses_in_window
                if violated:
                    if out is None:
                        out = ApplyOutcome(row)
                    out.mk_violation = True
                    state.margin_exhausted = True
                elif margin > 0:
                    state.margin_exhausted = False
                elif not state.margin_exhausted:
                    state.margin_exhausted = True
                    if out is None:
                        out = ApplyOutcome(row)
                    out.margin_exhausted_now = True
                if out is not None:
                    out.margin = margin
            elif kind == "mode":
                src.level = level
            # EXCEPTION / HEARTBEAT only refresh the source state above.
            if out is not None:
                flagged.append(out)
        return flagged

    # ------------------------------------------------------------------
    # Fleet-wide summaries
    # ------------------------------------------------------------------
    def chain_summary(self) -> List[dict]:
        """Per-key (m,k) status, sorted by key (reporting/CLI)."""
        rows = []
        for key in self.keys():
            source, chain = key
            state = self._chains[key]
            automaton = state.automaton
            rows.append({
                "source": source,
                "chain": chain,
                "mk": f"({automaton.m},{automaton.k})",
                "activations": automaton.total,
                "misses": automaton.total_misses,
                "violations": automaton.violations,
                "margin": automaton.margin,
                "records": state.records,
            })
        return rows

    def segment_percentiles(self) -> Dict[str, dict]:
        """Fleet-wide per-segment latency percentiles (merged sketches)."""
        merged: Dict[str, StreamingHistogram] = {}
        for shard in self.shards:
            for state in shard.values():
                for name, seg in state.segments.items():
                    sketch = merged.get(name)
                    if sketch is None:
                        sketch = StreamingHistogram(alpha=self.config.alpha)
                        merged[name] = sketch
                    sketch.merge(seg.hist)
        return {
            name: merged[name].percentiles() for name in sorted(merged)
        }

    def total_violations(self) -> int:
        """Sum of (m,k) violations across every key."""
        return sum(
            state.automaton.violations
            for shard in self.shards for state in shard.values()
        )

    def violations_by_source(self) -> Dict[str, int]:
        """Cumulative (m,k) violations per source (the adaptive control
        plane's canary-regression signal)."""
        counts: Dict[str, int] = {}
        for shard in self.shards:
            for (source, _chain), state in shard.items():
                counts[source] = (
                    counts.get(source, 0) + state.automaton.violations
                )
        return counts

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able exact state; inverse of :meth:`restore`."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "config": self.config.to_json(),
            "applied": self.applied,
            "shards": [
                [
                    [source, chain, shard[(source, chain)].to_json()]
                    for source, chain in sorted(shard)
                ]
                for shard in self.shards
            ],
            "sources": {
                name: self.sources[name].to_json()
                for name in sorted(self.sources)
            },
        }

    _KNOWN_FIELDS = frozenset(
        ("schema", "config", "applied", "shards", "sources")
    )

    @classmethod
    def restore(cls, data: dict) -> "ChainStateStore":
        """Rebuild a store from :meth:`snapshot` output.

        Raises :class:`~repro.schema.SchemaVersionError` for
        a missing/unknown schema identifier (checked before anything
        else is read); unknown extra fields warn and are skipped.
        """
        if not isinstance(data, dict):
            raise SchemaVersionError("store snapshot", type(data).__name__,
                                     SNAPSHOT_SCHEMA)
        if data.get("schema") != SNAPSHOT_SCHEMA:
            raise SchemaVersionError(
                "store snapshot", data.get("schema"), SNAPSHOT_SCHEMA
            )
        _warn_unknown_fields("store snapshot", data, cls._KNOWN_FIELDS)
        config = StoreConfig.from_json(data["config"])
        store = cls(config)
        store.applied = data["applied"]
        if len(data["shards"]) != config.n_shards:
            raise ValueError("snapshot shard count does not match config")
        for entries in data["shards"]:
            for source, chain, state in entries:
                store._index(
                    source, chain, ChainState.from_json(state, config.alpha)
                )
        for name, state in data["sources"].items():
            store.sources[name] = SourceState.from_json(state)
        return store

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ChainStateStore keys={len(self)} shards={self.config.n_shards} "
            f"applied={self.applied}>"
        )
