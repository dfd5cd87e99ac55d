import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "monorect"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    source = "from os import path, sep\nimport json\nprint(sep)\n"
    assert _unused_imports(source) == ["path (line 1)", "json (line 2)"]


def _store_writes(source: str) -> list[str]:
    """Where a module makes pool gates.

    That is a `Gate(...)` call, a `._interned` read, a `._unique(...)` call
    (it hands out a unique table, which holds gates) or a `.gates.append`.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == "Gate" or getattr(func, "attr", None) == "Gate":
                found.append(f"Gate(...) (line {node.lineno})")
            elif getattr(func, "attr", None) == "_unique":
                found.append(f"._unique(...) (line {node.lineno})")
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "append"
                and getattr(func.value, "attr", None) == "gates"
            ):
                found.append(f".gates.append (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr == "_interned":
            found.append(f"._interned (line {node.lineno})")
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "circuit.py"], ids=lambda p: p.name
)
def test_only_the_circuit_module_makes_gates(path):
    # one gate per key, uid = position in `Pool.gates`, children first: kept in one module
    assert _store_writes(path.read_text()) == []


def test_a_gate_made_outside_the_pool_is_reported():
    source = (
        "gate = pool._interned.get(key)\n"
        "gate = circuit.Gate(DEC, var, kids, len(pool.gates))\n"
        "pool.gates.append(Gate(CONST, 1, (), 0))\n"
        "table = pool._unique(DEC, var)\n"
    )
    assert sorted(_store_writes(source)) == [
        "._interned (line 1)",
        "._unique(...) (line 4)",
        ".gates.append (line 3)",
        "Gate(...) (line 2)",
        "Gate(...) (line 3)",
    ]
