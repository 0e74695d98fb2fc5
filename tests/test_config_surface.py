"""No option exists only in name: every config field has a caller.

Every ``@dataclass`` in ``src/repro`` named ``*Config`` or ``*Policy``
is parsed, and each of its public fields must be set somewhere outside
the tests -- in ``src``, an example or a bench -- as a keyword (or by position) in a call to the
class, as a keyword to ``dataclasses.replace``, or by assignment to an
attribute of that name.  A field only a test sets is a module constant
with extra steps (DESIGN.md "Options"): make it one, or list it in
``KEPT`` with the reason it stays.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import repro

SRC = Path(repro.__file__).resolve().parent
REPO = SRC.parent.parent
CALLER_DIRS = ("src", "examples", "benchmarks", "e2e_bench")

#: Fields that stand although no caller outside the tests sets them.
KEPT = {
    # The step caps, the degradation ladder's and the health
    # supervisor's thresholds are what a test tunes on a production
    # path; they stay options by decision.
    "ChaosConfig.max_steps": "step cap a test lowers",
    "AdaptConfig.max_steps": "step cap, kept alongside ChaosConfig's",
    "EscalationPolicy.health": "threshold policy of the ladder",
    "EscalationPolicy.degrade_after_violations": "ladder threshold",
    "EscalationPolicy.safe_after_violations": "ladder threshold",
    "EscalationPolicy.safe_after_consecutive_recoveries": "ladder threshold",
    "EscalationPolicy.recover_after_clean": "ladder threshold",
    "HealthPolicy.degraded_ratio": "health supervisor threshold",
    "HealthPolicy.failed_consecutive": "health supervisor threshold",
    "HealthPolicy.recover_clean": "health supervisor threshold",
    # Scene density and geometry: the perception quality, numerics and
    # kernel-differential tests draw scenes the default does not.
    "ScenarioConfig.spawn_prob": "scene density the perception tests vary",
    "ScenarioConfig.ring_spacing_m": "ground geometry a differential varies",
    # The application's own exception handlers (the paper's
    # user-defined recovery); the stack ships defaults for every segment.
    "StackConfig.handlers": "application handler override",
    # Set by ``experiments/common.py``'s ``GOLDEN_SCENARIOS`` keyword
    # dicts (``lossy_link``), which the scan does not read.
    "StackConfig.link_loss": "set by the lossy_link golden scenario",
    # Round-tripped by the store snapshot (``StoreConfig.from_json``
    # builds it through ``cls(...)``); tests shrink the windows to
    # reach the latency rule.
    "StoreConfig.default_budget_ns": "store snapshot field",
    "StoreConfig.window_records": "store snapshot field",
    "StoreConfig.latency_windows": "store snapshot field",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        if name == "dataclass":
            return True
    return False


def config_classes() -> Dict[str, List[str]]:
    """Class name -> its public fields, in declaration order."""
    found: Dict[str, List[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ClassDef)
                    and node.name.endswith(("Config", "Policy"))
                    and _is_dataclass(node)):
                continue
            fields = []
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and not stmt.target.id.startswith("_")
                        and "ClassVar" not in ast.unparse(stmt.annotation)):
                    fields.append(stmt.target.id)
            found[node.name] = fields
    return found


def _callee(call: ast.Call) -> str:
    func = call.func
    return getattr(func, "id", None) or getattr(func, "attr", None) or ""


def caller_files() -> Iterator[Path]:
    for top in CALLER_DIRS:
        yield from sorted((REPO / top).rglob("*.py"))


def settings(classes: Dict[str, List[str]]) -> Set[Tuple[str, str]]:
    """Every (class, field) some caller sets; ``("*", f)`` = any class."""
    seen: Set[Tuple[str, str]] = set()
    for path in caller_files():
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in classes and alias.asname:
                        aliases[alias.asname] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _callee(node)
                name = aliases.get(name, name)
                if name in classes:
                    for field, _ in zip(classes[name], node.args):
                        seen.add((name, field))
                    seen.update((name, kw.arg) for kw in node.keywords)
                elif name == "replace":
                    seen.update(("*", kw.arg) for kw in node.keywords)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Attribute):
                            seen.add(("*", sub.attr))
    return seen


def unset_fields() -> List[str]:
    classes = config_classes()
    seen = settings(classes)
    return [
        f"{cls}.{field}"
        for cls, fields in sorted(classes.items())
        for field in fields
        if (cls, field) not in seen and ("*", field) not in seen
        and f"{cls}.{field}" not in KEPT
    ]


def test_the_scan_finds_the_config_classes():
    classes = config_classes()
    assert "StackConfig" in classes and "HealthPolicy" in classes
    assert "seed" in classes["StackConfig"]
    # An enum named *Policy is not a dataclass and is not scanned.
    assert "SchedulerPolicy" not in classes


def test_kept_fields_still_exist():
    classes = config_classes()
    for name in KEPT:
        cls, field = name.split(".")
        assert field in classes.get(cls, ()), f"stale KEPT entry {name}"


def test_every_config_field_is_set_by_some_caller():
    unset = unset_fields()
    assert not unset, (
        "config fields no caller sets (make each a module constant): "
        + ", ".join(unset)
    )
