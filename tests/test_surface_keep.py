"""The surface audit's keep list names only what still exists, exactly.

``benchmarks/surface_keep.txt`` lists the functions no production entry
point reaches, each with its function-lines and the ROADMAP item or the
reason that keeps it; ``benchmarks/surface_audit.py`` fails when it
finds an unreached function the list does not name.  This test is the
cheap half of that ratchet (AST only): a stale line -- a symbol that was
deleted, renamed or resized -- fails here, not eight minutes into the
audit.
"""

import importlib.util
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
BENCHMARKS = SRC.parent.parent / "benchmarks"


def _audit():
    spec = importlib.util.spec_from_file_location(
        "surface_audit", BENCHMARKS / "surface_audit.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


AUDIT = _audit()


@pytest.fixture(scope="module")
def keep():
    return AUDIT.read_keep(BENCHMARKS / "surface_keep.txt")


def _defs(rel):
    """``{qualname: [function-lines of each def so named]}`` of a file."""
    found = {}
    for qualname, _first, lines in AUDIT.functions(SRC / rel):
        found.setdefault(qualname, []).append(len(lines))
    return found


def test_every_line_parses(keep):
    total, entries = keep
    assert entries and total > 0


def test_listed_symbols_exist_with_their_line_counts(keep):
    _total, entries = keep
    stale = []
    files = {}
    for symbol, (lines, _owner, _reason) in entries.items():
        rel, qualname = symbol.split(":")
        if rel not in files:
            files[rel] = _defs(rel) if (SRC / rel).is_file() else {}
        counts = files[rel].get(qualname)
        if counts is None:
            stale.append(f"{symbol}: no such def")
        elif lines not in counts and lines != sum(counts):
            stale.append(f"{symbol}: listed {lines} lines, has {counts}")
    assert not stale, "stale keep-list lines: " + "; ".join(stale)


def test_header_total_is_the_sum_of_the_lines(keep):
    total, entries = keep
    assert total == sum(lines for lines, _o, _r in entries.values())


def test_every_line_names_an_owner_or_a_reason(keep):
    _total, entries = keep
    for symbol, (_lines, owner, reason) in entries.items():
        assert owner != "-" or reason, symbol


@pytest.mark.parametrize("line, message", [
    ("12 core/x.py:f 11\n", "no 'total N'"),
    ("total 3\n3 core/x.py:f -\n", "no owner and no reason"),
    ("total 3\n3 core/x.py:f item4 why\n", "not an item"),
    ("total 3\nthree core/x.py:f - why\n", "want 'LINES"),
    ("total 6\n3 core/x.py:f 11\n3 core/x.py:f 11\n", "listed twice"),
])
def test_malformed_lines_are_refused(tmp_path, line, message):
    path = tmp_path / "keep.txt"
    path.write_text(line)
    with pytest.raises(AUDIT.KeepListError, match=message):
        AUDIT.read_keep(path)
