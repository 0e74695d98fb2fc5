"""Durable append-only logs: write-ahead spooling for the vehicle-side
uplink, and the one log implementation every other durable file uses.

The cardinal rule mirrors the ingest pipeline's ("no silent drops"),
extended across process death: **append before emit**.  A telemetry
record is written to a write-ahead log -- CRC-framed line in a rotating
segment file, flushed, optionally fsynced -- *before* the transport is
allowed to see it.  A record therefore exists in exactly one of four
places at any time, which is the uplink's ledger law::

    offered == acked + spooled + evicted

- *spooled*: durable in a WAL segment, not yet acknowledged;
- *acked*: the fleet service acknowledged it, the spool released it;
- *evicted*: the bounded disk budget forced the oldest records out --
  counted and reported (as seqs) through :attr:`WalSpooler.on_evict`,
  never silent.

Every durable log file is one format -- a JSON schema header line, then
one ``crc32(body):body`` line per entry, ``body`` a compact JSON list --
read back by one scanner, :func:`scan_log`, under one rule: a damaged or
unterminated *last* line is a torn tail (a mid-write crash), truncated
away in place and counted; damage anywhere else raises
:class:`WalCorruptionError`; a file holding only a torn header was being
created when the process died and starts afresh.  The writers:

- :class:`WalSpooler` -- the vehicle side.  Takes wire rows, encodes
  each once and holds a pending row as its seq and its line, nothing
  else; seq-indexed (per-source monotone), supports cumulative
  acknowledgment (``ack_through``, which returns the released seqs),
  segment-file rotation every ``segment_max_records`` records written,
  a bounded disk budget with oldest-first eviction, and
  :meth:`WalSpooler.recover` crash recovery.
- :class:`AppendLog` -- one log file on an open append handle.  The
  fleet side's :class:`RecordLog` is one: the ingestor's journal
  (records from many sources, watermark markers, checkpoint entries),
  appended to *before acknowledging*, never truncated, and rewritten
  to header + one full-state checkpoint entry (``tmp`` +
  ``os.replace``) once it has outgrown that entry several times over.
  So are the control plane's epoch ledger and each vehicle's epoch WAL
  (:mod:`repro.adaptive`).

The spooler's cumulative acknowledgment is durable in a third file of
the same format, the *ack-mark journal* (``ackmark.log``): a schema
header line, then one CRC-framed ``[seq]`` line appended per advancing
ack on a handle that stays open.  Once it holds ``segment_max_records``
marks it is rewritten to header + the current mark (``tmp`` +
``os.replace``), so it never outgrows a segment.  Only its last line
can be torn by a mid-write crash; recovery then falls back to the
previous mark -- counted, never silent -- which can only re-offer
records the fleet's dedup absorbs, never lose one.
"""

from __future__ import annotations

import os
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.schema import (
    SchemaVersionError,
    c_encode_json,
    c_scan_json,
    decode_json,
    encode_json_sorted,
    json_markers,
)
from repro.telemetry.records import SEQ, wire_fields_ok, wire_rows_ok

#: Schema identifier written into every WAL segment header.
WAL_SCHEMA = "repro-uplink-wal/1"

#: Schema written into the header of the acknowledgment-mark journal.
WAL_MARK_SCHEMA = "repro-uplink-walmark/2"

#: First element of a watermark marker entry in a :class:`RecordLog`.
MARKER_TAG = "~wm"

#: First element of a checkpoint entry in a :class:`RecordLog`; the
#: second is the ingestor's checkpoint document.
CHECKPOINT_TAG = "~ck"
_CHECKPOINT_PREFIX = f'["{CHECKPOINT_TAG}",'
_MARKER_PREFIX = f'["{MARKER_TAG}",'

#: Accepted fsync policies.
FSYNC_POLICIES = ("always", "rotate", "never")


class WalCorruptionError(RuntimeError):
    """Mid-file WAL damage (not a torn tail): refuse to guess."""


def _checked_fsync(fsync: str) -> str:
    if fsync not in FSYNC_POLICIES:
        raise ValueError(
            f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
        )
    return fsync


# ----------------------------------------------------------------------
# Line framing
# ----------------------------------------------------------------------
def encode_entry(body: str) -> str:
    """CRC-frame one JSON body as a WAL line (no trailing newline)."""
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x}:{body}"


def entry_body(line: str) -> Optional[str]:
    """The body of a CRC-framed line; ``None`` when torn or corrupt."""
    if len(line) < 10 or line[8] != ":":
        return None
    body = line[9:]
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != crc:
        return None
    return body


def _body_fields(body: Optional[str]) -> Optional[list]:
    # decode_json() inlined: recovery parses every entry line here.
    if body is None:
        return None
    try:
        try:
            fields, end = c_scan_json(body, 0)
        except StopIteration:
            end = None
        if end != len(body):
            fields = decode_json(body)  # a miss: json.loads decides
    except ValueError:
        return None
    return fields if isinstance(fields, list) else None


def decode_entry(line: str) -> Optional[list]:
    """Parse a CRC-framed line; ``None`` when torn or corrupt."""
    return _body_fields(entry_body(line))


def scan_log(
    path: Path, schema: str, parse: Callable[[str], object],
    tail_may_tear: bool = True,
) -> Tuple[Optional[dict], list, int, int]:
    """Read one header + CRC-framed-entries file.

    Returns ``(header, entries, kept_bytes, torn)``: ``parse(line)``
    maps each entry line to what the caller keeps, or ``None`` when the
    entry is damaged.  A damaged or unterminated
    *last* line is a torn tail -- the only line a mid-write crash can
    damage: it is physically truncated away and counted in ``torn``;
    damage anywhere else raises
    :class:`WalCorruptionError`.  That covers the header too: a crash
    while the file was being created leaves it empty or with a torn
    first line and nothing after (``header`` is ``None``, ``torn`` 1 if
    there were bytes: the log held no entry and starts afresh); an
    unreadable header followed by entries is corruption.
    """
    text = path.read_bytes().decode("utf-8", errors="replace")
    lines = text.split("\n")
    if lines.pop():
        # No final newline: that write never completed, whatever its
        # bytes parse as (appending after it would fuse two lines).
        lines.append("")
    try:
        header = decode_json(lines[0]) if lines else None
    except ValueError:
        header = None
    if not isinstance(header, dict):
        if len(lines) > 1:
            raise WalCorruptionError(f"{path}: unreadable header")
        return None, [], 0, len(lines)
    if header.get("schema") != schema:
        raise SchemaVersionError(str(path), header.get("schema"), schema)
    entries = []
    kept = len(lines[0].encode("utf-8")) + 1
    for line_no, line in enumerate(lines[1:], start=2):
        entry = parse(line)
        if entry is None:
            if not tail_may_tear or line_no != len(lines):
                raise WalCorruptionError(
                    f"{path}:{line_no}: corrupt entry mid-file"
                )
            with open(path, "r+b") as handle:
                handle.truncate(kept)
            return header, entries, kept, 1
        entries.append(entry)
        kept += len(line.encode("utf-8")) + 1
    return header, entries, kept, 0


# ----------------------------------------------------------------------
# Configuration / reports
# ----------------------------------------------------------------------
@dataclass
class WalConfig:
    """Shape and durability policy of one spool directory."""

    directory: Path
    #: ``always`` -- fsync every append (safest, slowest);
    #: ``rotate`` -- fsync when a segment closes; ``never`` -- flush only.
    fsync: str = "rotate"
    #: Records per segment file before rotation.
    segment_max_records: int = 256
    #: Total disk budget in bytes (None: unbounded).  When exceeded the
    #: oldest *closed* segment is evicted -- counted, never silent.
    max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        _checked_fsync(self.fsync)
        if self.segment_max_records < 1:
            raise ValueError("segment_max_records must be >= 1")
        if self.max_bytes is not None and self.max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 or None")


@dataclass
class RecoveryReport:
    """What :meth:`WalSpooler.recover` found on disk."""

    segments: int = 0
    #: Records still pending (unacked) after replay.
    pending: int = 0
    #: Torn tail lines dropped (mid-write crash artifacts).
    truncated_lines: int = 0
    #: Highest seq ever appended (resume point: next append > this).
    last_seq: int = -1
    #: Persisted cumulative acknowledgment watermark.
    ack_through: int = -1
    #: Torn tail lines of the ack-mark journal (recovery fell back to
    #: the previous, fully written mark).
    mark_truncated_lines: int = 0


class _Segment:
    """In-memory mirror of one WAL segment file."""

    __slots__ = ("index", "path", "seqs", "lines", "nbytes", "max_seq",
                 "written", "closed")

    def __init__(self, index: int, path: Path):
        self.index = index
        self.path = path
        #: Seqs of the pending (not yet acked/evicted) rows, ascending.
        self.seqs: List[int] = []
        #: CRC-framed wire lines, aligned 1:1 with :attr:`seqs`.  The
        #: spooler pays the JSON encode exactly once (at append), and
        #: frame building / relay reuses the cached line verbatim.
        self.lines: List[str] = []
        self.nbytes = 0
        #: Highest seq ever written to the file (survives mirror pops).
        self.max_seq = -1
        #: Records ever written to the file: rotation counts these, so a
        #: spool whose acks keep pace still rotates and stays bounded.
        self.written = 0
        self.closed = False


# ----------------------------------------------------------------------
# Vehicle-side spooler
# ----------------------------------------------------------------------
class WalSpooler:
    """Append-before-emit spool over rotating CRC-framed segment files.

    Create fresh with :meth:`open_fresh` (empty directory) or rebuild
    after a crash with :meth:`recover`.  Counters (``appended``,
    ``acked``, ``evicted``, ``truncated``) cover the current process
    life; cross-crash accounting is the caller's ledger, fed by the
    return value of :meth:`ack_through` and the :attr:`on_evict` hook.
    """

    def __init__(self, config: WalConfig, source: str,
                 _from_recover: bool = False):
        self.config = config
        self.source = source
        self.segments: List[_Segment] = []
        self._file = None
        #: Append handle on the ack-mark journal, and its mark lines.
        self._mark_file = None
        self._mark_lines = 0
        self._next_index = 0
        self.last_seq = -1
        self.ack_mark = -1
        self.appended = 0
        self.acked = 0
        self.evicted = 0
        self.truncated = 0
        #: Called with the seqs of the pending rows an eviction removed.
        self.on_evict: Optional[Callable[[List[int]], None]] = None
        if not _from_recover:
            config.directory.mkdir(parents=True, exist_ok=True)
            if list(config.directory.glob("wal-*.log")):
                raise FileExistsError(
                    f"{config.directory} already holds WAL segments; "
                    f"use WalSpooler.recover()"
                )
            self._open_segment()
            self._compact_mark()

    # ------------------------------------------------------------------
    @classmethod
    def open_fresh(cls, config: WalConfig, source: str) -> "WalSpooler":
        """A new spool in an empty (or freshly created) directory."""
        return cls(config, source)

    # ------------------------------------------------------------------
    def _mark_path(self) -> Path:
        return self.config.directory / "ackmark.log"

    def _open_segment(self) -> _Segment:
        index = self._next_index
        segment = _Segment(index, self.config.directory / f"wal-{index:08d}.log")
        self._next_index += 1
        header = encode_json_sorted(
            {"schema": WAL_SCHEMA, "segment": segment.index,
             "source": self.source}
        )
        self._file = open(segment.path, "a", encoding="utf-8")
        self._file.write(header + "\n")
        self._file.flush()
        segment.nbytes = len(header) + 1
        self.segments.append(segment)
        return segment

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Rows appended but neither acked nor evicted."""
        return sum(len(segment.seqs) for segment in self.segments)

    @property
    def total_bytes(self) -> int:
        return sum(segment.nbytes for segment in self.segments)

    def pending_seqs(self) -> List[int]:
        return [seq for segment in self.segments for seq in segment.seqs]

    def pending_entries(
        self, limit: Optional[int] = None, above_seq: int = -1
    ) -> List[Tuple[int, str]]:
        """Oldest pending ``(seq, wire line)`` pairs above ``above_seq``.

        The line is the exact CRC-framed entry on disk; the windowed
        client joins these into multi-record frames without re-encoding.
        """
        out: List[Tuple[int, str]] = []
        for segment in self.segments:
            if segment.max_seq <= above_seq:
                continue
            seqs = segment.seqs
            start = bisect_right(seqs, above_seq)
            stop = len(seqs)
            if limit is not None:
                stop = min(stop, start + limit - len(out))
            out += zip(seqs[start:stop], segment.lines[start:stop])
            if limit is not None and len(out) >= limit:
                break
        return out

    @property
    def floor_seq(self) -> int:
        """Lowest seq the vehicle may still offer.

        Equals the oldest pending seq, or ``last_seq + 1`` when the
        spool is drained.  Evictions raise the floor past the evicted
        rows, which is exactly what lets the ingest watermark skip
        them instead of waiting forever.
        """
        for segment in self.segments:
            if segment.seqs:
                return segment.seqs[0]
        return self.last_seq + 1

    # ------------------------------------------------------------------
    def append_many(self, rows: list) -> None:
        """Durably spool a batch of wire rows (``row[SEQ]`` is the seq):
        written once per segment it lands in, with one flush (and one
        fsync).  A batch that is not well-typed wire rows
        (:func:`~repro.telemetry.records.wire_fields_ok`: the fleet
        would refuse every frame carrying one) or whose seqs do not
        increase is refused whole, before anything is encoded."""
        if not rows:
            return
        if not wire_fields_ok(rows):
            raise ValueError("append_many takes well-typed wire rows")
        seqs = [row[SEQ] for row in rows]
        last = self.last_seq
        for seq in seqs:
            if seq <= last:
                raise ValueError(f"seq must increase: {seq} after {last}")
            last = seq
        # encode_json() and encode_entry() inlined, one line per row;
        # the check above leaves the encode nothing to fail on.
        bodies = ["".join(c_encode_json(row, 0)) for row in rows]
        lines = [
            "%08x:%s" % (zlib.crc32(body.encode()), body) for body in bodies
        ]
        limit = self.config.segment_max_records
        start = 0
        while start < len(lines):
            segment = self.segments[-1]
            if segment.written >= limit:
                segment = self._rotate(segment)
            end = start + limit - segment.written
            chunk = lines[start:end]
            self._file.write("\n".join(chunk) + "\n")
            segment.seqs += seqs[start:end]
            segment.lines += chunk
            segment.nbytes += sum(map(len, chunk)) + len(chunk)
            segment.max_seq = segment.seqs[-1]
            segment.written += len(chunk)
            start = end
        self.last_seq = last
        self.appended += len(lines)
        self._file.flush()
        if self.config.fsync == "always":
            os.fsync(self._file.fileno())
        self._enforce_budget()

    def _rotate(self, full: _Segment) -> _Segment:
        self._file.flush()
        if self.config.fsync in ("always", "rotate"):
            os.fsync(self._file.fileno())
        self._file.close()
        full.closed = True
        return self._open_segment()

    def _enforce_budget(self) -> None:
        budget = self.config.max_bytes
        if budget is None:
            return
        while self.total_bytes > budget:
            victim = next((s for s in self.segments if s.closed), None)
            if victim is None:
                return  # only the active segment left: exempt
            lost = victim.seqs
            self.segments.remove(victim)
            victim.path.unlink(missing_ok=True)
            self.evicted += len(lost)
            if lost and self.on_evict is not None:
                self.on_evict(lost)

    # ------------------------------------------------------------------
    def ack_through(self, seq: int) -> List[int]:
        """Release every pending row with a seq at or below *seq*.

        Returns the released seqs; persists the watermark so a
        recovery never resurrects acknowledged rows.  Stale (lower)
        watermarks are no-ops -- acks are cumulative.
        """
        if seq <= self.ack_mark:
            return []
        # Mark first, release second: a crash mid-write falls back to
        # the previous mark with every row above it still on disk.
        self.ack_mark = seq
        if self._mark_lines >= self.config.segment_max_records:
            self._compact_mark()
        else:
            self._write_mark()
        released: List[int] = []
        for segment in list(self.segments):
            seqs = segment.seqs
            if seqs and seqs[0] <= seq:
                cut = bisect_right(seqs, seq)
                released += seqs[:cut]
                del seqs[:cut]
                del segment.lines[:cut]
            if segment.closed and segment.max_seq <= seq:
                segment.path.unlink(missing_ok=True)
                self.segments.remove(segment)
        self.acked += len(released)
        return released

    def _write_mark(self) -> None:
        """Append the current mark to the journal, durably."""
        self._mark_file.write(encode_entry(f"[{self.ack_mark}]") + "\n")
        self._mark_lines += 1
        self._mark_file.flush()
        if self.config.fsync != "never":
            os.fsync(self._mark_file.fileno())

    def _compact_mark(self) -> None:
        """Atomically rewrite the journal as header + the current mark.

        Also how the journal is created and how recovery repairs a torn
        tail.  The handle stays open across the ``os.replace`` (a rename
        moves the name, not the open file), so later marks append to it.
        """
        if self._mark_file is not None:
            self._mark_file.close()
        path = self._mark_path()
        tmp = path.with_suffix(".tmp")
        header = encode_json_sorted(
            {"schema": WAL_MARK_SCHEMA, "source": self.source}
        )
        self._mark_file = open(tmp, "w", encoding="utf-8")
        self._mark_file.write(header + "\n")
        self._mark_lines = 0
        self._write_mark()
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    def close(self) -> None:
        for handle in (self._file, self._mark_file):
            if handle is not None and not handle.closed:
                handle.flush()
                if self.config.fsync != "never":
                    os.fsync(handle.fileno())
        self.abandon()

    def abandon(self) -> None:
        """Drop the file handles the way process death does: what was
        written reaches the OS, nothing is fsynced (crash harnesses)."""
        for handle in (self._file, self._mark_file):
            if handle is not None:
                handle.close()

    def stats(self) -> dict:
        return {
            "pending": self.pending,
            "segments": len(self.segments),
            "bytes": self.total_bytes,
            "appended": self.appended,
            "acked": self.acked,
            "evicted": self.evicted,
            "truncated": self.truncated,
            "last_seq": self.last_seq,
            "ack_through": self.ack_mark,
        }

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls, config: WalConfig, source: str
    ) -> Tuple["WalSpooler", RecoveryReport]:
        """Rebuild a spool from its directory after a crash.

        A torn *tail* line of the *last* segment (the only line a
        mid-write crash can damage) is physically truncated away and
        counted; damage anywhere else raises
        :class:`WalCorruptionError`.  The ack-mark journal follows the
        same rule (:meth:`_read_mark`).  Records at or below the
        persisted ack watermark are not resurrected.
        """
        spooler = cls(config, source, _from_recover=True)
        report = RecoveryReport()
        config.directory.mkdir(parents=True, exist_ok=True)
        paths = sorted(config.directory.glob("wal-*.log"))
        spooler.ack_mark, report.mark_truncated_lines = cls._read_mark(
            spooler._mark_path()
        )
        report.ack_through = spooler.ack_mark
        last_seq = spooler.ack_mark

        for file_no, path in enumerate(paths):
            is_last = file_no == len(paths) - 1
            segment, dropped = cls._read_segment(
                path, source, is_last=is_last
            )
            report.truncated_lines += dropped
            spooler.truncated += dropped
            if segment is None:
                continue  # torn header on the last file: removed
            last_seq = max(last_seq, segment.max_seq)
            cut = bisect_right(segment.seqs, spooler.ack_mark)
            del segment.seqs[:cut]
            del segment.lines[:cut]
            segment.closed = True
            spooler.segments.append(segment)

        spooler.last_seq = last_seq
        if spooler.segments:
            spooler._next_index = spooler.segments[-1].index + 1
        # Resume appends: reopen the last segment if it has room,
        # otherwise start a new one.
        tail = spooler.segments[-1] if spooler.segments else None
        if (
            tail is not None
            and tail.written < config.segment_max_records
            and tail.path.exists()
        ):
            tail.closed = False
            spooler._file = open(tail.path, "a", encoding="utf-8")
        else:
            spooler._open_segment()
        spooler._compact_mark()
        report.segments = len(spooler.segments)
        report.pending = spooler.pending
        report.last_seq = spooler.last_seq
        return spooler, report

    @staticmethod
    def _read_mark(path: Path) -> Tuple[int, int]:
        """Parse the ack-mark journal -> (highest valid mark, torn lines).

        A torn mark line falls back to the previous mark; a torn header
        can only be the whole file of a journal that never held a mark.
        """
        if not path.exists():
            return -1, 0

        def parse(line: str) -> Optional[int]:
            fields = decode_entry(line) or ()
            if len(fields) == 1 and isinstance(fields[0], int):
                return fields[0]
            return None

        _, marks, _, torn = scan_log(path, WAL_MARK_SCHEMA, parse)
        return max(marks, default=-1), torn

    @staticmethod
    def _read_segment(
        path: Path, source: str, is_last: bool
    ) -> Tuple[Optional[_Segment], int]:
        """Parse one segment file -> (segment, torn lines); each entry
        is kept as its seq and line, no record is built.

        Repairs a torn tail in place (truncate); ``segment is None``
        when the last file's *header* was torn (file removed).
        """
        def parse(line: str):
            fields = decode_entry(line)
            if not wire_rows_ok([fields]):
                return None
            return fields[SEQ], line

        header, entries, kept_bytes, dropped = scan_log(
            path, WAL_SCHEMA, parse, tail_may_tear=is_last
        )
        if header is None:
            if is_last:
                path.unlink(missing_ok=True)
                return None, dropped
            raise WalCorruptionError(f"{path}: unreadable segment header")
        segment = _Segment(int(path.stem.split("-")[1]), path)
        segment.seqs = [seq for seq, _ in entries]
        segment.lines = [line for _, line in entries]
        segment.written = len(entries)
        if entries:
            segment.max_seq = segment.seqs[-1]
        segment.nbytes = kept_bytes
        return segment, dropped

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<WalSpooler {self.source} pending={self.pending} "
            f"segments={len(self.segments)} ack={self.ack_mark}>"
        )


# ----------------------------------------------------------------------
# One log file on an open append handle
# ----------------------------------------------------------------------
class AppendLog:
    """A durable log file -- schema header line, then CRC-framed
    entries -- appended on one open handle.

    Durability per fsync policy: :meth:`create` fsyncs the new file and
    its directory, :meth:`sync` (the end of an append) fsyncs only under
    ``always``, :meth:`close` fsyncs; ``never`` only flushes.
    :meth:`replay` reads the file back with :func:`scan_log` after a
    crash and reopens it for appends.
    """

    def __init__(self, path: Path, header: dict, fsync: str = "rotate"):
        self.path = Path(path)
        self.fsync = _checked_fsync(fsync)
        self.schema = header["schema"]
        self.header = encode_json_sorted(header)
        #: Entries in the file (header not counted), its bytes, and the
        #: torn lines :meth:`replay` cut away.
        self.entries = 0
        self.nbytes = 0
        self.truncated = 0

    def create(self) -> None:
        """Start the file as its header alone; entries are acknowledged
        out of it, so its directory entry must survive too."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "w", encoding="utf-8")
        self._write(self.header)
        self._flush()
        self._sync_directory()

    def replay(self, parse: Callable[[str], object], fold: Callable) -> None:
        """Hand *fold* what *parse* made of each entry (:func:`scan_log`),
        then reopen the file for appends: an entry *fold* refuses leaves
        no handle open.  An absent or torn-header file starts afresh."""
        if self.path.exists():
            header, entries, self.nbytes, self.truncated = scan_log(
                self.path, self.schema, parse
            )
            if header is not None:
                for entry in entries:
                    fold(entry)
                self.entries = len(entries)
                self._file = open(self.path, "a", encoding="utf-8")
                return
        self.create()

    def _write(self, line: str) -> None:
        self._file.write(line + "\n")
        self.nbytes += len(line) + 1

    def append(self, body: str) -> None:
        """CRC-frame one JSON body as an entry (durable at :meth:`sync`)."""
        self._write(encode_entry(body))
        self.entries += 1

    def sync(self) -> None:
        """Make appended entries durable per the fsync policy."""
        self._file.flush()
        if self.fsync == "always":
            os.fsync(self._file.fileno())

    def _flush(self) -> None:
        self._file.flush()
        if self.fsync != "never":
            os.fsync(self._file.fileno())

    def _sync_directory(self) -> None:
        """Make the file's directory entry (a creation, a rename)
        durable, unless the policy is ``never``."""
        if self.fsync != "never":
            fd = os.open(self.path.parent, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def close(self) -> None:
        if not self._file.closed:
            self._flush()
            self._file.close()

    def abandon(self) -> None:
        """Drop the handle the way process death does: what was written
        reaches the OS, nothing is fsynced (crash harnesses)."""
        self._file.close()


# ----------------------------------------------------------------------
# Fleet-side append-before-ack journal
# ----------------------------------------------------------------------
class RecordLog(AppendLog):
    """The ingestor's one durable file: records, watermark markers and
    checkpoint entries.

    The ingestor appends every *fresh* record here (then the per-frame
    watermark marker) before acknowledging the frame.  A checkpoint is
    one more entry (:meth:`append_checkpoint`) and truncates nothing;
    :meth:`compact` rewrites the file as header + the records still
    waiting + one full-state checkpoint entry.  :meth:`open_existing`
    reads it back after a crash: the checkpoint entries, the lines
    before the last of them (the ingestor's redo) and the entries after
    it (its replay).
    """

    def __init__(self, path: Path, fsync: str = "rotate",
                 _replay: bool = False):
        super().__init__(
            path, {"schema": WAL_SCHEMA, "segment": 0, "source": "*fleet*"},
            fsync,
        )
        #: Bytes in the full-state checkpoint entry :meth:`compact` last
        #: left at the top of the file (0: never compacted).
        self.base_bytes = 0
        #: What :meth:`open_existing` read: the checkpoint documents,
        #: the bodies of the other lines before the last of them, and
        #: the (wire row, None) / (None, (source, seq)) entries after it.
        self.checkpoints: List[dict] = []
        self.settled: List[str] = []
        self.replayed: List[
            Tuple[Optional[list], Optional[Tuple[str, int]]]
        ] = []
        if not _replay:
            self.create()

    # ------------------------------------------------------------------
    def append_lines(self, lines: List[str]) -> None:
        """Append already CRC-framed entry lines verbatim, one write.

        The frame path hands a frame's fresh WAL lines straight through:
        their CRCs were verified at decode, so nothing is re-encoded.
        """
        self._file.write("\n".join(lines) + "\n")
        self.nbytes += sum(map(len, lines)) + len(lines)
        self.entries += len(lines)

    def append_marker(self, source: str, seq: int) -> None:
        try:  # encode_json() inlined: a marker follows every frame
            body = "".join(c_encode_json([MARKER_TAG, source, seq], 0))
        except BaseException:
            json_markers.clear()
            raise
        self._write(encode_entry(body))
        self.entries += 1

    def append_checkpoint(self, body: str) -> None:
        """Durably append one checkpoint entry (*body*: its JSON)."""
        self._write(encode_entry(body))
        self._flush()

    def compact(self, waiting: List[str], body: str) -> None:
        """Atomically rewrite the journal as header + the *waiting*
        record lines + one checkpoint entry holding the full state
        (``tmp`` + ``os.replace``; the handle stays open across the
        rename).  Unless the policy is ``never`` the directory is
        fsynced before anything is appended to the new inode: a power
        cut must not keep a later append and lose the rename."""
        self._file.close()
        tmp = self.path.with_suffix(".tmp")
        self._file = open(tmp, "w", encoding="utf-8")
        entry = encode_entry(body)
        self.nbytes, self.base_bytes = 0, len(entry) + 1
        for line in [self.header] + waiting + [entry]:
            self._write(line)
        self._flush()
        os.replace(tmp, self.path)
        self._sync_directory()

    # ------------------------------------------------------------------
    @classmethod
    def open_existing(cls, path: Path, fsync: str = "rotate") -> "RecordLog":
        """Read an existing journal (crash recovery); creates if absent."""
        log = cls(path, fsync, _replay=True)

        def parse(line: str):
            # Only checkpoint entries are decoded on the way: whatever
            # precedes the last of them is settled, CRC-checked here and
            # decoded in one piece by settled_rows().
            body = entry_body(line)
            if body is None or not body.startswith(_CHECKPOINT_PREFIX):
                return body
            fields = _body_fields(body) or ()
            if len(fields) != 2 or not isinstance(fields[1], dict):
                return None
            log.base_bytes = log.base_bytes or len(line) + 1
            return fields[1]

        entries: list = []
        log.replay(parse, entries.append)
        live = 1 + max(
            (i for i, e in enumerate(entries) if isinstance(e, dict)),
            default=-1,
        )
        for entry in entries[:live]:
            if isinstance(entry, dict):
                log.checkpoints.append(entry)
            else:
                log.settled.append(entry)
        log.replayed = [log._decode(body) for body in entries[live:]]
        return log

    def _decode(self, body: str):
        fields = _body_fields(body) or ()
        if (
            len(fields) == 3 and fields[0] == MARKER_TAG
            and isinstance(fields[2], int)
        ):
            return None, (fields[1], fields[2])
        if not wire_rows_ok([fields]):
            raise WalCorruptionError(
                f"{self.path}: intact line is neither record nor marker"
            )
        return fields, None

    def settled_rows(self) -> List[list]:
        """The wire rows logged before the last checkpoint entry, in log
        order: one parse of their bodies joined by a raw newline
        (no string spans two, as in ``decode_frame``), markers unread."""
        bodies = [b for b in self.settled if not b.startswith(_MARKER_PREFIX)]
        rows = _body_fields("[" + ",\n".join(bodies) + "]") or []
        if len(rows) != len(bodies) or not wire_rows_ok(rows):
            raise WalCorruptionError(
                f"{self.path}: intact line is neither record nor marker"
            )
        return rows

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RecordLog {self.path.name} entries={self.entries}>"
