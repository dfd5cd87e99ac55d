import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "monorect"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (`__init__.py` re-exports on purpose)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES + TESTS + SCRIPTS, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    source = "from os import path, sep\nimport json\nprint(sep)\n"
    assert _unused_imports(source) == ["path (line 1)", "json (line 2)"]


_STORE_LISTS = ("_kinds", "_payloads", "_children")


def _store_writes(source: str) -> list[str]:
    """Where a module makes pool gates.

    That is an `.append` on one of the store lists `_STORE_LISTS`, called
    or taken as a bound method, or a `._tables` read (the pool's unique
    tables, which map children to uids).
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if node.attr == "_tables":
                found.append(f"._tables (line {node.lineno})")
            elif node.attr == "append" and getattr(node.value, "attr", None) in _STORE_LISTS:
                found.append(f".{node.value.attr}.append (line {node.lineno})")
    return found


def _names_formats(source: str) -> list[str]:
    """Where a module formats a `{names}` message: a `.format` call given
    `names`, reported by the function it is in."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "attr", None) == "format"
                and any(k.arg == "names" for k in child.keywords)
            ):
                found.append(f"{where} (line {child.lineno})")
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "circuit.py"], ids=lambda p: p.name
)
def test_only_the_circuit_module_makes_gates(path):
    # one uid per (kind, payload, children), uid = position in the store, children
    # first: kept in one module; the others read the store lists
    assert _store_writes(path.read_text()) == []


def test_a_gate_made_outside_the_pool_is_reported():
    source = (
        "uid = pool._tables[DEC][var].get(kids)\n"
        "pool._kinds.append(DEC); pool._children.append(kids)\n"
        "tables = pool._tables\n"
        "add = pool._payloads.append\n"
        "kinds = pool._kinds; kids = pool._children[uid]; Circuit(pool, uid).children\n"
    )
    assert sorted(_store_writes(source)) == [
        "._children.append (line 2)",
        "._kinds.append (line 2)",
        "._payloads.append (line 4)",
        "._tables (line 1)",
        "._tables (line 3)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_ensure_within_names_variables(path):
    # one raise site for a variable outside what a check allows, so one place
    # decides the error's type and text
    sites = _names_formats(path.read_text())
    if path.name == "semantics.py":
        assert [site.split()[0] for site in sites] == ["ensure_within"]
    else:
        assert sites == []


def test_a_names_message_formatted_elsewhere_is_reported():
    source = (
        "def ensure_within(extra, message):\n"
        "    raise ValueError(message.format(names=', '.join(extra)))\n"
        "def check(c):\n"
        "    text = 'outside {names}'.format(names='x')\n"
        "    def inner(): return m.format(other=1, names=n)\n"
        "    return '{} {n}'.format('a', n=1), inner\n"
        "top = '{names}'.format(names=1)\n"
    )
    assert _names_formats(source) == [
        "ensure_within (line 2)",
        "check (line 4)",
        "inner (line 5)",
        "<module> (line 7)",
    ]
