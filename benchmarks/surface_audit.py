"""Which functions of ``src/repro`` does a production entry point reach?

Runs every entry point below (the ``e2e_bench`` workloads traced and
untraced, every ``python -m repro`` subcommand, the examples and the
figure benches) with a ``sitecustomize`` on ``PYTHONPATH`` that installs
a ``sys.setprofile`` hook, then prints the function-lines of
``src/repro`` no run ever called: per package, then per symbol, marking
the names that also appear nowhere in ``e2e_bench/``, ``examples/`` or
``benchmarks/`` as text.  The unit tests are deliberately *not* an entry
point: a function only they reach is the finding.

    python3 benchmarks/surface_audit.py [--repo DIR]

The audit is a ratchet over the audited checkout's
``benchmarks/surface_keep.txt`` (:func:`read_keep`): it exits 1 when
a symbol it finds unreached is not listed there, or when the unreached
function-lines exceed the listed total.  A listed symbol that a run now
reaches is printed as "drop this line", so the list only shrinks.

The hook appends each function the first time a process calls it to a
per-process file, so nothing is lost when a process never runs its exit
handlers (``multiprocessing`` workers leave through ``os._exit``, a pool
that is closed is sent SIGTERM).  ``pytest-benchmark`` suspends the
profiler around a timed call, so the figure benches run with
``--benchmark-disable``.  A function-line is a source line inside a
``def``, counted for the innermost one; a ``def`` marked ``# pragma: no
cover`` (every ``__repr__``) is left out.  Point ``--repo`` at a fresh
copy (``git clone`` / ``git archive``): the figure benches rewrite
``results/``.  Takes ~8 minutes.  Not a test: pytest collects nothing
here.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Set, Tuple

HOOK = '''\
import os, sys, threading

_ROOT = os.environ["SURFACE_AUDIT_ROOT"]
_OUT = os.environ["SURFACE_AUDIT_OUT"]
_seen = {}
_sink = [0, -1]  # pid, fd


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if id(code) in _seen:
        return
    _seen[id(code)] = code  # keeps the id from being reused
    if code.co_filename.startswith(_ROOT):
        pid = os.getpid()
        if _sink[0] != pid:  # first call, or a forked child
            _sink[0] = pid
            _sink[1] = os.open(os.path.join(_OUT, "%d.calls" % pid),
                               os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(_sink[1], ("%s\\t%d\\n" % (
            code.co_filename, code.co_firstlineno)).encode())


threading.setprofile(_hook)
sys.setprofile(_hook)
'''

PY = sys.executable

#: ``4(a)``, ``11``, ``2+6``: the ROADMAP item(s) owning a kept symbol.
OWNER = re.compile(r"^\d+(\([a-z]\))?(\+\d+(\([a-z]\))?)*$")


class KeepListError(ValueError):
    """A line of the keep list does not parse."""


def read_keep(path: Path) -> Tuple[int, Dict[str, Tuple[int, str, str]]]:
    """``(total, {path:qualname: (lines, owner, reason)})`` of the keep
    list: a ``total N`` line (the unreached function-lines allowed), then
    one line per unreached symbol -- its function-lines, ``path:qualname``
    under ``src/repro``, the ROADMAP item owning it (``-`` for none) and
    the reason it stays (required without an owner).  ``#`` lines are
    comments."""
    total = None
    entries: Dict[str, Tuple[int, str, str]] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path.name}:{number}"
        fields = line.split(None, 3)
        if fields[0] == "total":
            if total is not None or len(fields) != 2 \
                    or not fields[1].isdigit():
                raise KeepListError(f"{where}: want one 'total N' line")
            total = int(fields[1])
            continue
        if len(fields) < 3 or not fields[0].isdigit() \
                or fields[1].count(":") != 1:
            raise KeepListError(f"{where}: want 'LINES PATH:QUALNAME "
                                f"OWNER [REASON]', got {line!r}")
        lines, symbol, owner = int(fields[0]), fields[1], fields[2]
        reason = fields[3] if len(fields) == 4 else ""
        if owner != "-" and not OWNER.match(owner):
            raise KeepListError(f"{where}: owner {owner!r} is not an item")
        if owner == "-" and not reason:
            raise KeepListError(f"{where}: {symbol} has no owner and no "
                                f"reason")
        if symbol in entries:
            raise KeepListError(f"{where}: {symbol} listed twice")
        entries[symbol] = (lines, owner, reason)
    if total is None:
        raise KeepListError(f"{path.name}: no 'total N' line")
    return total, entries


def entry_points(work: Path) -> List[Tuple[List[str], bool]]:
    """(command, needs ``PYTHONPATH=src``) for every production entry."""
    repro = [PY, "-m", "repro"]
    runs = [
        ([PY, "-m", "e2e_bench", "run", "--quick"], False),
        (repro + ["all"], True),
        (repro + ["all", "-j2"], True),
        (repro + ["chaos", "--quick", "--report", str(work / "chaos.json")],
         True),
        (repro + ["adapt", "--quick", "--report", str(work / "adapt.json")],
         True),
        (repro + ["gateway", "--report", str(work / "gw.json")], True),
        (repro + ["gateway", "--overload", "--report",
                  str(work / "gw-overload.json")], True),
        (repro + ["telemetry", "--vehicles", "4", "--frames", "200",
                  "--alert-log", str(work / "alerts.jsonl"),
                  "--snapshot", str(work / "snapshot.json")], True),
    ]
    for scenario in ("benign", "lossy_link"):
        runs.append((repro + [
            "trace", "--scenario", scenario, "--frames", "12",
            "--chrome", str(work / f"{scenario}.chrome.json"),
            "--jsonl", str(work / f"{scenario}.jsonl")], True))
    return runs


def run_all(repo: Path, out: Path) -> None:
    hook_dir = out / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    calls = out / "calls"
    calls.mkdir()
    work = out / "work"
    work.mkdir()
    base_env = dict(os.environ,
                    SURFACE_AUDIT_ROOT=str(repo / "src" / "repro") + os.sep,
                    SURFACE_AUDIT_OUT=str(calls))
    src = str(repo / "src")
    commands = entry_points(work)
    commands += [([PY, str(path)], True)
                 for path in sorted((repo / "examples").glob("*.py"))]
    commands.append(([PY, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                      "--benchmark-disable", "benchmarks"], True))
    for command, with_src in commands:
        path = [str(hook_dir)] + ([src] if with_src else [])
        env = dict(base_env, PYTHONPATH=os.pathsep.join(path))
        shown = " ".join(command).replace(str(work), "$W")
        print(f"$ {shown}", file=sys.stderr, flush=True)
        done = subprocess.run(command, cwd=repo, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            # A missing path is a finding either way: report and go on.
            print(f"  exit {done.returncode}: "
                  f"{done.stderr.strip().splitlines()[-1:]}", file=sys.stderr)


def called(calls: Path) -> Set[Tuple[str, int]]:
    seen = set()
    for path in calls.glob("*.calls"):
        for line in path.read_text().splitlines():
            name, _, lineno = line.rpartition("\t")
            seen.add((name, int(lineno)))
    return seen


def functions(path: Path):
    """``[qualname, first line as the code object reports it, own
    lines]`` for every ``def`` of a file; one the repository already
    marks ``# pragma: no cover`` (a ``__repr__``) owns no lines."""
    source = path.read_text()
    text = source.splitlines()
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                entry = [f"{prefix}{child.name}", first,
                         set(range(child.lineno, child.end_lineno + 1))]
                found.append(entry)
                inner = len(found)
                visit(child, f"{prefix}{child.name}.")
                for nested in found[inner:]:
                    entry[2] -= nested[2]
                if "pragma: no cover" in text[child.lineno - 1]:
                    entry[2].clear()
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def report(repo: Path, seen: Set[Tuple[str, int]]) -> Dict[str, int]:
    """Print the audit; return ``{path:qualname: lines}`` unreached."""
    root = repo / "src" / "repro"
    text = "\n".join(
        path.read_text()
        for folder in ("e2e_bench", "examples", "benchmarks")
        for path in sorted((repo / folder).rglob("*.py"))
        if path.name != Path(__file__).name
    )
    words = set(re.findall(r"\w+", text))
    totals: Dict[str, List[int]] = {}
    symbols = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        package = rel.parts[0] if len(rel.parts) > 1 else "(top)"
        cell = totals.setdefault(package, [0, 0])
        for qualname, first, lines in functions(path):
            cell[0] += len(lines)
            if lines and (str(path), first) not in seen:
                cell[1] += len(lines)
                name = qualname.rsplit(".", 1)[-1]
                symbols.append((str(rel), qualname, len(lines),
                                name not in words))
    all_lines = sum(c[0] for c in totals.values())
    dead_lines = sum(c[1] for c in totals.values())
    print(f"{'package':<12s} {'function-lines':>14s} {'never called':>12s}")
    for package, (lines, dead) in sorted(totals.items()):
        print(f"{package:<12s} {lines:>14d} {dead:>12d}")
    print(f"{'total':<12s} {all_lines:>14d} {dead_lines:>12d} "
          f"({100.0 * dead_lines / all_lines:.1f}%)")
    print("\nnever called ('*': the name is also absent from e2e_bench/, "
          "examples/, benchmarks/ as text):")
    unreached: Dict[str, int] = {}
    for rel, qualname, lines, absent in symbols:
        print(f"  {'*' if absent else ' '} {lines:>4d}  {rel}:{qualname}")
        symbol = f"{rel}:{qualname}"
        unreached[symbol] = unreached.get(symbol, 0) + lines
    return unreached


def ratchet(unreached: Dict[str, int], keep: Path) -> int:
    """Hold *unreached* against the keep list; 0 when it passes."""
    total, entries = read_keep(keep)
    failed = 0
    print(f"\nagainst {keep.name} (total {total}):")
    for symbol, lines in sorted(unreached.items()):
        if symbol not in entries:
            failed = 1
            print(f"  not listed: {lines:>4d}  {symbol} -- delete it, or "
                  f"list it with its owning item or reason")
    for symbol in sorted(set(entries) - set(unreached)):
        print(f"  reached now, drop this line: {symbol}")
    found = sum(unreached.values())
    if found > total:
        failed = 1
        print(f"  {found} unreached function-lines exceed the listed "
              f"total {total}")
    print("  FAIL" if failed else f"  ok: {found} <= {total}")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout to audit (default: this one)")
    repo = parser.parse_args(argv).repo.resolve()
    keep = repo / "benchmarks" / "surface_keep.txt"
    read_keep(keep)  # a malformed list fails before the 8-minute run
    with tempfile.TemporaryDirectory(prefix="surface-audit-") as tmp:
        run_all(repo, Path(tmp))
        unreached = report(repo, called(Path(tmp) / "calls"))
    return ratchet(unreached, keep)


if __name__ == "__main__":
    sys.exit(main())
