"""Every package namespace is complete: its lazy table is right.

A package ``__init__`` imports no submodule; ``repro.lazy_exports``
resolves each public name from the package's table on first access.  A
stale entry (a renamed class, a moved function) would otherwise fail on
a user's first call, so for every package this resolves each name in
``__all__``, star-imports it, imports each submodule through ``from``,
and asks for a name that does not exist.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent


def table_of(init: Path) -> dict:
    """The ``lazy_exports`` table of a package ``__init__``, as written."""
    for node in ast.walk(ast.parse(init.read_text())):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"):
            return ast.literal_eval(node.args[1])
    return {}


PACKAGES = sorted(
    ".".join(("repro",) + init.parent.relative_to(ROOT).parts)
    for init in ROOT.rglob("__init__.py") if init.parent != ROOT
)


def test_every_package_has_a_table():
    tables = {
        name: table_of(ROOT.joinpath(*name.split(".")[1:], "__init__.py"))
        for name in PACKAGES
    }
    assert [name for name, table in tables.items() if not table] == []


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_resolves_to_its_definition(name):
    package = importlib.import_module(name)
    table = table_of(Path(package.__file__))
    exported = [n for names in table.values() for n in names]
    assert sorted(getattr(package, "__all__", [])) == sorted(exported)
    listed = dir(package)
    for module, names in table.items():
        assert module.startswith(name + ".")
        defining = importlib.import_module(module)
        for public in names:
            assert getattr(package, public) is getattr(defining, public)
            assert public in listed


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_all_of_all(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    package = importlib.import_module(name)
    for public in getattr(package, "__all__", []):
        assert namespace[public] is getattr(package, public)


@pytest.mark.parametrize("name", PACKAGES)
def test_from_package_import_submodule(name):
    package = importlib.import_module(name)
    for info in pkgutil.iter_modules(package.__path__):
        namespace: dict = {}
        exec(f"from {name} import {info.name}", namespace)
        assert namespace[info.name] is importlib.import_module(
            f"{name}.{info.name}")


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})
