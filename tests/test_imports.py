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


def _walk(source: str):
    """Every node of `source` but a function's definition, with the function it is in, in order."""

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                yield from visit(child, child.name)
            else:
                yield where, child
                yield from visit(child, where)

    return visit(ast.parse(source), "<module>")


def _is(node, name: str) -> bool:
    """Whether `node` is `name`, or an attribute `name` of something."""
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def _calls(source: str, name: str) -> list[tuple[str, ast.Call]]:
    """Every call of `name`, as a function or a method, with the function it is in."""
    return [(where, node) for where, node in _walk(source) if _is(getattr(node, "func", None), name)]


def _names_formats(source: str) -> list[str]:
    """Where a module formats a `{names}` message: a `.format` call given
    `names`, reported by the function it is in."""
    return [
        f"{where} (line {call.lineno})"
        for where, call in _calls(source, "format")
        if any(k.arg == "names" for k in call.keywords)
    ]


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


# The functions that call `ensure_within`: the gate interpreter, the one scope check
# of both routes, and two checks against a set of their own (features; an order).
_ENSURE_WITHIN_CALLERS = {
    "semantics.py": ["_table"],
    "classifier.py": ["_check_problem_vars", "from_positive_circuit"],
    "dtree.py": ["circuit_to_dt"],
}


def _callers(source: str, name: str) -> list[str]:
    """The function each call of `name` is in, and each one that raises `name` without
    calling it (`raise ValueError`, `raise errors.RectifyError`), in source order."""
    return [
        where for where, node in _walk(source)
        if _is(node.exc if isinstance(node, ast.Raise) else getattr(node, "func", None), name)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_known_checks_call_ensure_within(path):
    # a rule about variables is checked in one place, so a new caller is a second copy
    assert _callers(path.read_text(), "ensure_within") == _ENSURE_WITHIN_CALLERS.get(path.name, [])


def test_a_call_of_ensure_within_elsewhere_is_reported():
    source = (
        "def _table(circ, masks):\n"
        "    ensure_within(circ.vars_outside(masks), 'm {names}')\n"
        "class Tree:\n"
        "    def certify(self, problem):\n"
        "        semantics.ensure_within(self.vars_outside(problem.all_vars), 'tree {names}')\n"
        "check = ensure_within\n"
    )
    assert _callers(source, "ensure_within") == ["_table", "certify"]


# The functions that make a builtin ValueError or TypeError.  Each rejects how the
# library is called (a gate of another pool, a term with both polarities, a repeated
# enumeration order, an empty forest, a negative `rewrites`, an argument of the wrong
# type), not what an input holds: that is a RectifyError, which the CLI reports as an
# input error (exit 2) where it reports a builtin error as an internal one (exit 4).
_BUILTIN_ERRORS = {
    "ValueError": {
        "circuit.py": ["__init__", "_owned"],
        "dtree.py": ["__post_init__"],
        "semantics.py": ["truth_mask"],
        "verify.py": ["check_postulates"],
    },
    "TypeError": {"circuit.py": ["condition"], "classifier.py": ["as_instance"]},
}


@pytest.mark.parametrize("error", _BUILTIN_ERRORS)
def test_only_the_known_call_checks_make_a_builtin_error(error):
    callers = {path.name: _callers(path.read_text(), error) for path in MODULES}
    assert {name: found for name, found in callers.items() if found} == _BUILTIN_ERRORS[error]


def test_a_builtin_error_planted_in_an_input_check_is_reported():
    source = (
        "class ClassificationProblem:\n"
        "    @property\n"
        "    def label(self):\n"
        "        if not self.mono_label:\n"
        "            raise ValueError('one label only')\n"
        "        return self.labels[0]\n"
        "def as_instance(problem, x):\n"
        "    raise RectifyError('instance term must mention every feature exactly once')\n"
        "except_clause = (RectifyError, ValueError)\n"
    )
    assert _callers(source, "ValueError") == ["label"]


def test_a_builtin_error_raised_without_a_call_is_reported():
    source = (
        "class ClassificationProblem:\n"
        "    @property\n"
        "    def label(self):\n"
        "        if not self.mono_label:\n"
        "            raise ValueError\n"
        "        return self.labels[0]\n"
        "def as_instance(problem, x):\n"
        "    try:\n"
        "        return problem.word(x)\n"
        "    except KeyError:\n"
        "        raise\n"
        "def evaluate(circ, point):\n"
        "    raise RectifyError('point misses a variable')\n"
        "def ensure_within(extra):\n"
        "    raise builtins.TypeError\n"
    )
    assert _callers(source, "ValueError") == ["label"]
    assert _callers(source, "TypeError") == ["ensure_within"]


def _certification_errors(source: str) -> list[str]:
    """Where a module makes a CertificationError with anything but the one text, `_UNCERTIFIED`."""
    return [
        f"{where} (line {call.lineno})"
        for where, call in _calls(source, "CertificationError")
        if call.keywords or [getattr(arg, "id", None) for arg in call.args] != ["_UNCERTIFIED"]
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_certification_error_has_the_one_text(path):
    # circuits and trees are refused with one line; classifier.py alone defines it
    source = path.read_text()
    assert _certification_errors(source) == []
    assert ("\n_UNCERTIFIED = " in source) == (path.name == "classifier.py")


def test_a_certification_error_with_another_text_is_reported():
    source = (
        "def certify(circ):\n"
        "    raise CertificationError(_UNCERTIFIED)\n"
        "def certify_tree(tree):\n"
        "    raise errors.CertificationError('tree is not certified')\n"
        "def bare():\n"
        "    raise CertificationError()\n"
        "error = CertificationError(_UNCERTIFIED, cause=1)\n"
    )
    assert _certification_errors(source) == [
        "certify_tree (line 4)",
        "bare (line 6)",
        "<module> (line 7)",
    ]


# The callers of each kernel that enumerates: the gate interpreter `_table`, the
# full truth table and what reads one, and the table-to-tree expansion.  None of
# the construction's functions (`rectify`, `decisive_circuits`, `positive_circuit`,
# `classify_batch`, `dt_rectify`, `dt_check_classification`) is among them; a
# class attribute read such as `Classifier._of_region` is no call.
_ENUMERATING_CALLERS = {
    "truth_mask": {
        "classifier.py": ["_full_table"],
        "dtree.py": ["circuit_to_dt"],
        "semantics.py": ["equivalent", "equivalent"],
    },
    "_full_table": {"classifier.py": ["label_blocks", "check_xy_property"]},
    "check_xy_property": {"classifier.py": ["__init__"]},
    "_from_table": {"dtree.py": ["circuit_to_dt", "_from_table", "_from_table", "_from_table"]},
    "_table": {"classifier.py": ["label_blocks"], "semantics.py": ["truth_mask", "evaluate"]},
    "equivalent": {},
}


@pytest.mark.parametrize("kernel", _ENUMERATING_CALLERS)
def test_only_the_known_functions_call_an_enumerating_kernel(kernel):
    # a new caller may put model enumeration on the answer path
    callers = {path.name: _callers(path.read_text(), kernel) for path in MODULES}
    assert {name: found for name, found in callers.items() if found} == _ENUMERATING_CALLERS[kernel]


def test_an_enumeration_planted_on_the_answer_path_is_reported():
    source = (
        "def rectify(clf, theory):\n"
        "    accepted = disjoin(kept, forces_pos)\n"
        "    assert semantics.truth_mask(accepted, clf.problem.all_vars)\n"
        "    return Classifier._of_region, accepted\n"
        "def _full_table(circ, problem, what, cap):\n"
        "    return truth_mask(circ, problem.all_vars)\n"
    )
    assert _callers(source, "truth_mask") == ["rectify", "_full_table"]
    assert _callers(source, "_of_region") == []
