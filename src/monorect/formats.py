"""Text formats: circuit expressions, decision trees, and problem files.

Everything is an s-expression over UTF-8 text; `;` starts a comment that
runs to the end of the line.

Circuit expressions::

    expr    := 'true' | 'false' | NAME
             | '(' 'not' expr ')'
             | '(' 'and' expr+ ')' | '(' 'or' expr+ ')'
             | '(' 'imp' expr expr ')' | '(' 'iff' expr expr ')'
             | '(' 'dec' NAME expr expr ')'          low branch first
             | '(' 'let' '(' binding+ ')' expr ')'
    binding := '(' NAME expr ')'                     shared subcircuit

Decision trees::

    tree := '0' | '1' | '(' NAME tree tree ')'       low (NAME = 0) first

Problem files are a sequence of top-level forms, in any order::

    (features NAME+)     required
    (labels NAME+)       required, disjoint from the features
    (sigma EXPR)         required: the classifier circuit
    (theory EXPR)        required: the background knowledge
    (forest TREE+)       optional: classification trees over features+labels

Decision-tree files (inputs of the dt-rectify command)::

    (features NAME+)
    (labels NAME)
    (tree TREE)

Printers emit a canonical single-space form; reparsing printed output
reproduces the original structure exactly.  The circuit printer names
every shared gate in a `let`, so its output is linear in the arc count,
and both printers work with explicit stacks, like the readers.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .circuit import CONST, DEC, VAR
from .circuit import Circuit, Gate, Pool, VarId, iter_gates
from .classifier import ClassificationProblem
from .dtree import LEAF0, LEAF1, DecisionTree, DTLeaf, DTNode
from .errors import ParseError


# A token is a parenthesis, a name or a comment; blanks between tokens
# are skipped.  Every other character is part of a name, so no text is
# lost between tokens.
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")


def _read_all(text: str) -> list:
    """All top-level forms: names as strings, parenthesized forms as lists."""
    forms: list = []
    items = forms
    open_lists: list[list] = []  # the lists enclosing `items`
    for token in _TOKEN.findall(text):
        if token == "(":
            inner: list = []
            items.append(inner)
            open_lists.append(items)
            items = inner
        elif token == ")":
            if not open_lists:
                raise _unbalanced(text)
            items = open_lists.pop()
        elif token[0] != ";":
            items.append(token)
    if open_lists:
        raise _unbalanced(text)
    return forms


def _unbalanced(text: str) -> ParseError:
    """The error for the first unbalanced parenthesis, with its position.

    Reading keeps no positions; this second pass, made only for the
    error, finds the ')' that closes nothing or else the innermost '('
    left open.
    """
    opened = []
    for match in _TOKEN.finditer(text):
        token = match.group()
        if token == "(":
            opened.append(match.start())
        elif token == ")":
            if not opened:
                return ParseError("unexpected ')'", *_position(text, match.start()))
            opened.pop()
    return ParseError("missing ')'", *_position(text, opened[-1]))


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of a character offset."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _read_one(text: str):
    forms = _read_all(text)
    if not forms:
        raise ParseError("empty input")
    if len(forms) > 1:
        raise ParseError("expected exactly one expression")
    return forms[0]


# ----------------------------------------------------------------------
# circuits


def parse_circuit(text: str, pool: Pool) -> Circuit:
    """Parse one circuit expression against the pool's variable table."""
    return pool.build(_read_one(text))


def print_circuit(circ: Circuit) -> str:
    """Canonical text for a circuit, linear in its arc count.

    A gate used more than once, other than a constant or a variable, is
    spelled out once, as a `let` binding that precedes every use; the
    names g0, g1, ... skip the pool's variable names.
    """
    gates = iter_gates(circ)
    uses = Counter(child.uid for gate in gates for child in gate.children)
    taken = {v.name for v in circ.pool.variables}
    names: dict[int, str] = {}
    out = ["(let ("]
    i = 0
    for gate in gates:  # children first, so a binding uses earlier names only
        if uses[gate.uid] > 1 and gate.kind not in (CONST, VAR):
            while f"g{i}" in taken:
                i += 1
            out.append(f"(g{i} ")
            _spell(gate, names, out)
            out.append(") ")
            names[gate.uid] = f"g{i}"
            i += 1
    body: list[str] = []
    _spell(circ.root, names, body)
    if not names:
        return "".join(body)
    out[-1] = ")) "
    return "".join(out) + "".join(body) + ")"


def _spell(gate: Gate, names: dict[int, str], out: list[str]):
    """Append the text of `gate` to `out`, with the names of named gates below it."""
    todo: list = [gate]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.uid in names:
            out.append(names[item.uid])
        elif item.kind == CONST:
            out.append("true" if item.payload else "false")
        elif item.kind == VAR:
            out.append(item.payload.name)
        else:
            out.append(f"(dec {item.payload.name}" if item.kind == DEC else f"({item.kind}")
            todo.append(")")
            for child in reversed(item.children):
                todo.append(child)
                todo.append(" ")


# ----------------------------------------------------------------------
# decision trees


def parse_dtree(text: str, pool: Pool) -> DecisionTree:
    """Parse one decision tree against the pool's variable table."""
    return _tree_from(_read_one(text), pool)


def _tree_from(node, pool: Pool) -> DecisionTree:
    """Tree of a read form, with an explicit stack.

    Forms are checked in the order a recursive reader would meet them (a
    node, its variable, its low subtree, then its high subtree), so the
    first error is the same; a node is made once both subtrees are done.
    """
    done: list[DecisionTree] = []
    todo = [node]
    while todo:
        item = todo.pop()
        if isinstance(item, VarId):
            high = done.pop()
            done.append(DTNode(item, done.pop(), high))
        elif isinstance(item, str):
            if item == "0":
                done.append(LEAF0)
            elif item == "1":
                done.append(LEAF1)
            else:
                raise ParseError(f"decision-tree leaf must be 0 or 1, got {item!r}")
        elif len(item) != 3 or not isinstance(item[0], str):
            raise ParseError("decision-tree node must be (variable low high)")
        else:
            todo.append(pool.var(item[0]))
            todo.append(item[2])
            todo.append(item[1])
    return done[0]


def print_dtree(tree: DecisionTree) -> str:
    """Canonical text for a decision tree, with an explicit stack."""
    out: list[str] = []
    todo: list = [tree]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, DTLeaf):
            out.append("1" if item.value else "0")
        else:
            out.append(f"({item.var.name} ")
            todo.extend((")", item.high, " ", item.low))
    return "".join(out)


# ----------------------------------------------------------------------
# problem and tree files


@dataclass(frozen=True)
class ProblemFile:
    pool: Pool
    problem: ClassificationProblem
    sigma: Circuit
    theory: Circuit
    forest: tuple[DecisionTree, ...] | None


@dataclass(frozen=True)
class TreeFile:
    pool: Pool
    problem: ClassificationProblem
    tree: DecisionTree


_PROBLEM_SECTIONS = ("features", "labels", "sigma", "theory", "forest")
_TREE_SECTIONS = ("features", "labels", "tree")


def _sections(text: str, known: tuple[str, ...], required: tuple[str, ...]) -> dict:
    seen: dict[str, list] = {}
    for form in _read_all(text):
        if not isinstance(form, list) or not form or not isinstance(form[0], str):
            raise ParseError("top-level forms must look like (keyword ...)")
        key = form[0]
        if key not in known:
            raise ParseError(f"unknown section {key!r}")
        if key in seen:
            raise ParseError(f"duplicate section {key!r}")
        seen[key] = form[1:]
    for key in required:
        if key not in seen:
            raise ParseError(f"missing section {key!r}")
    return seen


def _names(section: list, what: str) -> list[str]:
    if not section or not all(isinstance(item, str) for item in section):
        raise ParseError(f"{what} must be a non-empty list of names")
    return section


def _single(section: list, what: str):
    if len(section) != 1:
        raise ParseError(f"section {what!r} needs exactly one entry")
    return section[0]


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file into a fresh pool."""
    seen = _sections(text, _PROBLEM_SECTIONS, ("features", "labels", "sigma", "theory"))
    pool = Pool()
    features = pool.declare(*_names(seen["features"], "features"))
    labels = pool.declare(*_names(seen["labels"], "labels"))
    problem = ClassificationProblem(features, labels)
    sigma = pool.build(_single(seen["sigma"], "sigma"))
    theory = pool.build(_single(seen["theory"], "theory"))
    forest = None
    if "forest" in seen:
        if not seen["forest"]:
            raise ParseError("section 'forest' needs at least one tree")
        forest = tuple(_tree_from(t, pool) for t in seen["forest"])
    return ProblemFile(pool, problem, sigma, theory, forest)


def parse_tree_file(text: str) -> TreeFile:
    """Parse a decision-tree file into a fresh pool."""
    seen = _sections(text, _TREE_SECTIONS, _TREE_SECTIONS)
    pool = Pool()
    features = pool.declare(*_names(seen["features"], "features"))
    label_names = _names(seen["labels"], "labels")
    if len(label_names) != 1:
        raise ParseError("decision-tree files declare exactly one label")
    labels = pool.declare(*label_names)
    problem = ClassificationProblem(features, labels)
    tree = _tree_from(_single(seen["tree"], "tree"), pool)
    return TreeFile(pool, problem, tree)
