"""``src/repro`` is layered: no import goes up ``repro.LAYERS``.

Every ``import`` / ``from`` statement of every module is parsed --
function-level lazy imports included, which is where cycles hide -- and
so is every module a package's ``lazy_exports`` table names, since the
first access of that name imports it.  Each is mapped to an edge between
the units directly under ``repro/`` (a package, or a top-level module
such as ``schema``).  An edge must point
at a strictly lower layer, so the unit graph is acyclic and every unit
is its own strongly connected component.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import repro
from repro import LAYERS

ROOT = Path(repro.__file__).resolve().parent
#: ``python -m repro`` sits above every layer; ``__init__`` imports nothing.
RANK = {name: rank for rank, name in enumerate(LAYERS)}
RANK["__main__"] = RANK["__init__"] = len(LAYERS)


def unit_of(relative: Path) -> str:
    return relative.parts[0] if len(relative.parts) > 1 else relative.stem


def imported_modules(path: Path, relative: Path) -> Iterator[Tuple[int, str]]:
    """(line, absolute dotted name) of everything a module imports."""
    package = ("repro",) + relative.parts[:-1]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package[:len(package) - node.level + 1]
                base = ".".join(anchor + ((base,) if base else ()))
            # ``from repro import core`` names a unit in its alias.
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "lazy_exports"):
            for key in node.args[1].keys:
                yield key.lineno, key.value


def edges(root: Path) -> Dict[Tuple[str, str], List[str]]:
    """Unit -> unit import edges of the tree at *root*, with where."""
    found: Dict[Tuple[str, str], List[str]] = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        source = unit_of(relative)
        for lineno, name in imported_modules(path, relative):
            parts = name.split(".")
            if parts[0] != "repro" or len(parts) < 2:
                continue
            target = parts[1]
            # ``from repro import LAYERS`` names an attribute, not a unit;
            # anything dotted deeper must be a unit (a KeyError if not).
            if target != source and (target in RANK or len(parts) > 2):
                found.setdefault((source, target), []).append(
                    f"{relative}:{lineno}")
    return found


def upward(found: Dict[Tuple[str, str], List[str]]) -> List[str]:
    return [
        f"{source} -> {target} at {', '.join(where)}"
        for (source, target), where in sorted(found.items())
        if RANK[target] >= RANK[source]
    ]


def components(found) -> List[List[str]]:
    """Strongly connected components (Tarjan) of the unit graph."""
    graph: Dict[str, List[str]] = {}
    for source, target in found:
        graph.setdefault(source, []).append(target)
        graph.setdefault(target, [])
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []
    out: List[List[str]] = []

    def visit(node: str) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        for peer in graph[node]:
            if peer not in index:
                visit(peer)
                low[node] = min(low[node], low[peer])
            elif peer in stack:
                low[node] = min(low[node], index[peer])
        if low[node] == index[node]:
            cut = stack.index(node)
            out.append(sorted(stack[cut:]))
            del stack[cut:]

    for node in sorted(graph):
        if node not in index:
            visit(node)
    return out


def test_every_unit_has_a_layer():
    units = {unit_of(p.relative_to(ROOT)) for p in ROOT.rglob("*.py")}
    assert units == set(RANK)


def test_no_import_goes_up_the_layers():
    assert upward(edges(ROOT)) == []


def test_every_package_is_its_own_component():
    knots = [c for c in components(edges(ROOT)) if len(c) > 1]
    assert knots == []


def test_the_check_sees_a_lazy_upward_import(tmp_path):
    """Self-check: a function-level import from a higher layer, absolute
    or relative, is reported and closes a cycle."""
    (tmp_path / "sim").mkdir()
    (tmp_path / "core").mkdir()
    (tmp_path / "sim" / "kernel.py").write_text(
        "def late():\n    from repro.core import chains\n")
    (tmp_path / "core" / "chains.py").write_text(
        "from ..sim.kernel import late\n")
    found = edges(tmp_path)
    assert upward(found) == ["sim -> core at sim/kernel.py:2"]
    assert ["core", "sim"] in components(found)


def test_the_check_sees_an_upward_lazy_export(tmp_path):
    """Self-check: a package ``lazy_exports`` table naming a module of a
    higher layer is an upward import, though no statement imports it."""
    (tmp_path / "sim").mkdir()
    (tmp_path / "sim" / "__init__.py").write_text(
        "from repro import lazy_exports\n"
        "\n"
        "__all__, __getattr__, __dir__ = lazy_exports(__name__, {\n"
        "    \"repro.sim.kernel\": (\"Simulator\",),\n"
        "    \"repro.core.chains\": (\"EventChain\",),\n"
        "})\n")
    assert upward(edges(tmp_path)) == ["sim -> core at sim/__init__.py:5"]


def test_design_md_quotes_the_order():
    design = (ROOT.parent.parent / "DESIGN.md").read_text()
    assert " < ".join(LAYERS) in " ".join(design.split())
