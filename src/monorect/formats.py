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

Readers split the text into tokens with string methods and make one pass
over them: trees go straight from tokens to nodes, circuits straight from
tokens to pooled gates (`Pool.read`).  Positions are found only on the
error path, where an unbalanced parenthesis is reported before any other
error.  When a text has more than one fault, the first one read is
reported: a circuit form is checked at its ')', so a fault inside an
operand comes before a wrong arity of the form around it (the arity of a
`let` or `dec` whose bindings or variable are at fault still comes
first); a section is read where it stands once the declarations (and
sigma, for the theory) are in, so its fault comes before a later one's.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .circuit import CONST, DEC, VAR
from .circuit import Circuit, Gate, Pool, _form_end, iter_gates
from .classifier import ClassificationProblem
from .dtree import LEAF0, LEAF1, DecisionTree, DTLeaf, DTNode
from .errors import ParseError, RectifyError


# `_tokens` deletes comments and the blanks after a '('; `_TOKEN` splits alike, with positions.
_COMMENT = re.compile(r";[^\n]*")
_OPEN_BLANKS = re.compile(r"\( +")
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")


def _tokens(text: str) -> list[str]:
    """Names, ')' and '(' glued to the name after it; only space, tab, CR and LF are blanks."""
    if ";" in text:
        text = _COMMENT.sub("", text)
    text = text.replace("\t", " ").replace("\r", " ").replace("\n", " ")
    if "( " in text:
        text = _OPEN_BLANKS.sub("(", text)
    return list(filter(None, text.replace("(", " (").replace(")", " ) ").split(" ")))


def _unbalanced(text: str) -> ParseError | None:
    """The error for the first unbalanced parenthesis, with its position, if any.

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
    return ParseError("missing ')'", *_position(text, opened[-1])) if opened else None


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of a character offset."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _read_one(text: str, read, *args):
    """The one form of `text`, read by `read(tokens, 0, *args)`."""
    try:
        tokens = _tokens(text) + [")"]  # the ')' closes the top level
        forms, end = read(tokens, 0, *args)
        if len(forms) != 1 or end != len(tokens):
            raise ParseError("expected exactly one expression" if forms else "empty input")
        return forms[0]
    except (RectifyError, IndexError) as error:  # IndexError: a ')' is missing
        raise _unbalanced(text) or error  # an unbalanced parenthesis is reported first


# ----------------------------------------------------------------------
# circuits


def parse_circuit(text: str, pool: Pool) -> Circuit:
    """Parse one circuit expression against the pool's variable table."""
    return Circuit(pool, _read_one(text, pool.read))


def print_circuit(circ: Circuit) -> str:
    """Canonical text for a circuit, linear in its arc count.

    A gate used more than once, other than a constant or a variable, is
    spelled out once, as a `let` binding that precedes every use; the
    names g0, g1, ... skip the pool's variable names.
    """
    gates = iter_gates(circ)
    uses = [0] * (circ.root.uid + 1)
    for gate in gates:
        for child in gate.children:
            uses[child.uid] += 1
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
    return _read_one(text, _trees_at, pool.var)


def _trees_at(tokens: list[str], i: int, var) -> tuple[list[DecisionTree], int]:
    """The trees from tokens[i] to the ')' closing them, and the index after it."""
    resolved: dict = {}  # `var` of each '(name' token met
    done: list[DecisionTree] = []
    opened: list = []  # each open node's variable and the height of `done` at its '('
    while True:
        token = tokens[i]
        i += 1
        if token == ")":
            if not opened:
                return done, i
            var_id, height = opened.pop()
            if len(done) != height + 2:  # the node's two subtrees, and nothing else
                raise ParseError("decision-tree node must be (variable low high)")
            high = done.pop()
            done[-1] = DTNode(var_id, done[-1], high)
        elif token == "0":
            done.append(LEAF0)
        elif token == "1":
            done.append(LEAF1)
        elif token == "(":
            raise ParseError("decision-tree node must be (variable low high)")
        elif token[0] == "(":
            var_id = resolved.get(token)
            if var_id is None:
                var_id = resolved[token] = var(token[1:])
            opened.append((var_id, len(done)))
        else:
            raise ParseError(f"decision-tree leaf must be 0 or 1, got {token!r}")


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


def _read_file(text: str, known: tuple[str, ...], required: tuple[str, ...]):
    """The pool, problem and sections of a file, read in order in one pass.

    A section that needs the pool, met before it, is skipped and read at
    the end.  Sigma is read before theory, so its gates come first in any
    order of sections.
    """
    try:
        tokens = _tokens(text)
        seen: dict[str, list | None] = {}
        later: list[tuple[str, int]] = []  # sections read at the end, and where they start
        pool = problem = None
        i = 0
        while i < len(tokens):
            key = tokens[i][1:]
            if tokens[i][0] != "(" or not key:
                raise ParseError("top-level forms must look like (keyword ...)")
            if key not in known:
                raise ParseError(f"unknown section {key!r}")
            if key in seen:
                raise ParseError(f"duplicate section {key!r}")
            if key in ("features", "labels"):
                count, end = _form_end(tokens, i + 1)
                if not count or count != end - i - 2:  # a '(' among them adds a token
                    raise ParseError(f"{key} must be a non-empty list of names")
                seen[key], i = tokens[i + 1 : end - 1], end
            elif pool is None or (key == "theory" and seen.get("sigma") is None):
                later.append((key, i + 1))
                seen[key], i = None, _form_end(tokens, i + 1)[1]
            elif key in ("tree", "forest"):
                seen[key], i = _trees_at(tokens, i + 1, pool.var)
            else:
                seen[key], i = pool.read(tokens, i + 1)
            if pool is None and "features" in seen and "labels" in seen:
                pool = Pool()
                problem = ClassificationProblem(pool.declare(*seen["features"]), pool.declare(*seen["labels"]))
        for key in required:
            if key not in seen:
                raise ParseError(f"missing section {key!r}")
        for key, start in sorted(later, key=lambda entry: entry[0] == "theory"):
            circuit = key in ("sigma", "theory")
            seen[key] = (pool.read(tokens, start) if circuit else _trees_at(tokens, start, pool.var))[0]
        return pool, problem, seen
    except (RectifyError, IndexError) as error:
        raise _unbalanced(text) or error  # an unbalanced parenthesis is reported first


def _single(section: list, what: str):
    if len(section) != 1:
        raise ParseError(f"section {what!r} needs exactly one entry")
    return section[0]


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file into a fresh pool."""
    pool, problem, seen = _read_file(text, _PROBLEM_SECTIONS, _PROBLEM_SECTIONS[:4])
    sigma = Circuit(pool, _single(seen["sigma"], "sigma"))
    theory = Circuit(pool, _single(seen["theory"], "theory"))
    forest = seen.get("forest")
    if forest == []:
        raise ParseError("section 'forest' needs at least one tree")
    return ProblemFile(pool, problem, sigma, theory, forest and tuple(forest))


def parse_tree_file(text: str) -> TreeFile:
    """Parse a decision-tree file into a fresh pool."""
    pool, problem, seen = _read_file(text, _TREE_SECTIONS, _TREE_SECTIONS)
    if not problem.mono_label:
        raise ParseError("decision-tree files declare exactly one label")
    return TreeFile(pool, problem, _single(seen["tree"], "tree"))
