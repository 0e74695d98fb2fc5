"""No option exists only in name: every settable default has a caller.

Every class in ``src/repro`` is parsed.  Its options are the public
keyword defaults of its ``__init__`` and, for a ``@dataclass``, the
public fields that have a default or a ``default_factory`` (every public
field of a ``*Config`` or ``*Policy``, which is all input).  A factory
field a run fills -- a result's list of alerts, say -- is an output, not
an option, and is named in ``OUTPUTS``.  Each option must be set
somewhere outside the tests -- in ``src``, an example or a bench -- as
a keyword (or by position) in a call to the class or to a subclass of
it, in a subclass's ``super().__init__(...)``, as a keyword to
``dataclasses.replace``, as a key of a dict literal (or ``dict(...)``
call) that reaches such a call through ``**`` -- directly, through a
module-level name, an entry of a module-level dict of dicts, or what a
function of the same file returns -- or by assignment to an attribute
of that name.  An option only a test sets is a module
constant with extra steps (DESIGN.md "Options"): make it one, or list
it in ``KEPT`` with the reason it stays.
"""

import ast
import functools
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

import repro

SRC = Path(repro.__file__).resolve().parent
REPO = SRC.parent.parent
CALLER_DIRS = ("src", "examples", "benchmarks", "e2e_bench")

#: Options that stand although no caller outside the tests sets them.
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
    # The use case's end-to-end budget (B_e2e); only the load-time
    # feasibility gate's tests change it.
    "StackConfig.budget_e2e": "B_e2e the feasibility gate's tests tighten",
    # Round-tripped by the store snapshot (``StoreConfig.from_json``
    # builds it through ``cls(...)``); tests shrink the windows to
    # reach the latency rule.
    "StoreConfig.default_budget_ns": "store snapshot field",
    "StoreConfig.window_records": "store snapshot field",
    "StoreConfig.latency_windows": "store snapshot field",
    # Where the gateway listens is a deployment setting, not a tuning
    # knob: the loopback default is what the in-process runs use.
    "GatewaySocketServer.address": "deployment setting (listen address)",
}

#: ``field(default_factory=...)`` accumulators: a run fills them, no
#: caller is meant to pass them.
OUTPUTS = {
    "AlertLog.alerts",
    "ChainAttribution.category_histograms",
    "ChainAttribution.e2e_histogram",
    "ChainAttribution.edge_histograms",
    "EpisodeResult.checks",
    "MonitorStats.execution_times",
    "MonitorStats.monitor_latencies",
    "OracleReport.failures",
    "ResolveOutcome.reasons",
    "ShadowVerdict.reasons",
}


class ClassInfo(NamedTuple):
    bases: Tuple[str, ...]
    #: Parameters a call binds by position (an ``__init__``'s, without
    #: ``self``, or a dataclass's fields), or None to inherit them.
    positional: object
    #: Options: public parameters or fields that have a default.
    options: Tuple[str, ...]
    dataclass: bool


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        if name == "dataclass":
            return True
    return False


def _has_default(value) -> bool:
    if value is None:
        return False
    if isinstance(value, ast.Call) and _callee(value) == "field":
        return any(kw.arg in ("default", "default_factory")
                   for kw in value.keywords)
    return True


def _class_info(node: ast.ClassDef) -> ClassInfo:
    bases = tuple(
        getattr(b, "id", None) or getattr(b, "attr", None) or ""
        for b in node.bases
    )
    if _is_dataclass(node):
        config = node.name.endswith(("Config", "Policy"))
        fields, options = [], []
        for stmt in node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)):
                name = stmt.target.id
                fields.append(name)
                if not name.startswith("_") and (
                        config or _has_default(stmt.value)):
                    options.append(name)
        return ClassInfo(bases, tuple(fields), tuple(options), True)
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            args = stmt.args
            positional = [a.arg for a in args.posonlyargs + args.args][1:]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
            options = [a for a in defaulted if not a.startswith("_")]
            return ClassInfo(bases, tuple(positional), tuple(options), False)
    return ClassInfo(bases, None, (), False)


def src_classes() -> Dict[str, ClassInfo]:
    """Public class name -> what the scan knows of it."""
    found: Dict[str, ClassInfo] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found[node.name] = _class_info(node)
    return found


def positional_params(classes: Dict[str, ClassInfo], name: str) -> List[str]:
    """What a call to *name* binds by position (dataclass fields run
    base first, as ``@dataclass`` orders them)."""
    info = classes.get(name)
    if info is None:
        return []
    if info.dataclass:
        inherited: List[str] = []
        for base in info.bases:
            inherited += positional_params(classes, base)
        return inherited + list(info.positional)
    if info.positional is not None:
        return list(info.positional)
    for base in info.bases:
        params = positional_params(classes, base)
        if params:
            return params
    return []


def options(classes: Dict[str, ClassInfo]) -> List[Tuple[str, str]]:
    return [
        (name, option)
        for name, info in sorted(classes.items())
        for option in info.options
    ]


def ancestors(classes: Dict[str, ClassInfo], name: str) -> Set[str]:
    seen: Set[str] = set()
    todo = [name]
    while todo:
        info = classes.get(todo.pop())
        for base in info.bases if info else ():
            if base in classes and base not in seen:
                seen.add(base)
                todo.append(base)
    return seen


def _callee(call: ast.Call) -> str:
    func = call.func
    return getattr(func, "id", None) or getattr(func, "attr", None) or ""


def caller_files() -> Iterator[Path]:
    for top in CALLER_DIRS:
        yield from sorted((REPO / top).rglob("*.py"))


def _file_scope(tree: ast.Module) -> Dict[str, ast.AST]:
    """What ``**`` may resolve through in one file: module-level names
    (by name) and functions and methods (by ``name()``)."""
    scope: Dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    scope[target.id] = node.value
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
              and isinstance(node.target, ast.Name)):
            scope[node.target.id] = node.value
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            scope[node.name + "()"] = node
    return scope


def _dict_keys(expr, scope, depth=0) -> Set[str]:
    """The string keys of the dict literal(s) *expr* evaluates to, as
    far as the file alone says."""
    if depth > 4:
        return set()
    keys: Set[str] = set()
    if isinstance(expr, ast.Name) and expr.id in scope:
        keys |= _dict_keys(scope[expr.id], scope, depth + 1)
    elif isinstance(expr, ast.Dict):
        for key, value in zip(expr.keys, expr.values):
            if key is None:  # ``**other`` inside the literal
                keys |= _dict_keys(value, scope, depth + 1)
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.add(key.value)
    elif isinstance(expr, ast.Subscript):
        # One entry of a dict of dicts: any of its values.
        table = expr.value
        if isinstance(table, ast.Name):
            table = scope.get(table.id)
        if isinstance(table, ast.Dict):
            for value in table.values:
                keys |= _dict_keys(value, scope, depth + 1)
    elif isinstance(expr, ast.Call) and _callee(expr) == "dict":
        keys |= {kw.arg for kw in expr.keywords if kw.arg}
    elif isinstance(expr, ast.Call) and _callee(expr) + "()" in scope:
        for node in ast.walk(scope[_callee(expr) + "()"]):
            if isinstance(node, ast.Return) and node.value is not None:
                keys |= _dict_keys(node.value, scope, depth + 1)
    return keys


def _keywords(call: ast.Call, scope) -> List[str]:
    """Keyword names a call passes, ``**`` dicts included."""
    names = []
    for kw in call.keywords:
        if kw.arg:
            names.append(kw.arg)
        else:
            names.extend(sorted(_dict_keys(kw.value, scope)))
    return names


def _record_call(classes, seen, name, call, scope):
    """(class, option) pairs a call to *name* sets, credited to *name*
    and every ancestor (a subclass call sets the inherited option)."""
    params = positional_params(classes, name)
    bound = [p for p, _ in zip(params, call.args)]
    bound += _keywords(call, scope)
    for owner in {name} | ancestors(classes, name):
        seen.update((owner, p) for p in bound)


def settings(classes: Dict[str, ClassInfo]) -> Set[Tuple[str, str]]:
    """Every (class, option) some caller sets; ``("*", f)`` = any
    option of that name."""
    seen: Set[Tuple[str, str]] = set()
    for path in caller_files():
        tree = ast.parse(path.read_text())
        scope = _file_scope(tree)
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in classes and alias.asname:
                        aliases[alias.asname] = alias.name
        for klass in ast.walk(tree):
            if not isinstance(klass, ast.ClassDef):
                continue
            for node in ast.walk(klass):
                # ``super().__init__(...)`` calls the bases' __init__.
                if (isinstance(node, ast.Call) and _callee(node) == "__init__"
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Call)
                        and _callee(node.func.value) == "super"):
                    for base in classes.get(klass.name, ClassInfo(
                            (), None, (), False)).bases:
                        if base in classes:
                            _record_call(classes, seen, base, node, scope)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _callee(node)
                name = aliases.get(name, name)
                if name in classes:
                    _record_call(classes, seen, name, node, scope)
                elif name == "replace":
                    seen.update(("*", kw) for kw in _keywords(node, scope))
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Attribute):
                            seen.add(("*", sub.attr))
    return seen


@functools.lru_cache(maxsize=None)
def scan() -> Tuple[Dict[str, ClassInfo], Set[Tuple[str, str]]]:
    """The classes and the settings, parsed once for every test here."""
    classes = src_classes()
    return classes, settings(classes)


def unset_options() -> List[str]:
    classes, seen = scan()
    return [
        f"{name}.{option}"
        for name, option in options(classes)
        if (name, option) not in seen
        and ("*", option) not in seen
        and f"{name}.{option}" not in KEPT
        and f"{name}.{option}" not in OUTPUTS
    ]


def test_the_scan_finds_the_config_classes():
    classes, _seen = scan()
    found = set(options(classes))
    assert ("StackConfig", "seed") in found
    assert ("HealthPolicy", "degraded_ratio") in found
    # An ``__init__`` keyword default is an option too.
    assert ("DdsDomain", "local_latency") in found
    # An enum has no options.
    assert not classes["GatewayMode"].options
    # A ``field(default_factory=...)`` is an option too, and every
    # field of a *Config / *Policy, a required one included.
    assert "budget_by_segment" in classes["StoreConfig"].options
    assert "config_overrides" in classes["FaultScenario"].options
    assert "directory" in classes["WalConfig"].options


def test_a_subclass_call_sets_the_inherited_option():
    classes, seen = scan()
    assert "EpisodeScenario" in ancestors(classes, "GatewayChaosScenario")
    assert ("EpisodeScenario", "crashes") in seen


def test_a_keyword_dict_sets_the_option():
    """``**`` dicts count: a golden scenario's dict entry through
    ``StackConfig(**{**GOLDEN_SCENARIOS[name], ...})``, and a method's
    returned ``dict(...)`` through ``BudgetControlPlane(...,
    **self._plane_options())``."""
    _classes, seen = scan()
    assert ("StackConfig", "link_loss") in seen
    assert ("BudgetControlPlane", "resolver_config") in seen


def test_kept_fields_still_exist():
    found = {f"{name}.{option}" for name, option in options(scan()[0])}
    for name in [*KEPT, *OUTPUTS]:
        assert name in found, f"stale KEPT / OUTPUTS entry {name}"


def test_every_config_field_is_set_by_some_caller():
    unset = unset_options()
    assert not unset, (
        "options no caller sets (make each a module constant): "
        + ", ".join(unset)
    )
