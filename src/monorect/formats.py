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

Problem files are a sequence of top-level forms, in any order, each
required exactly once::

    (features NAME+)
    (labels NAME+)       disjoint from the features
    (sigma EXPR)         the classifier circuit
    (theory EXPR)        the background knowledge

Decision-tree files (inputs of the dt-rectify command)::

    (features NAME+)
    (labels NAME)
    (tree TREE)

Printers emit a canonical single-space form; reparsing printed output
reproduces the original structure exactly.  The circuit printer names
every shared gate in a `let`, so its output is linear in the arc count,
and both printers work with explicit stacks, like the readers.

Readers split the text into tokens with string methods and make one pass
over them, straight from tokens to pooled gates: circuits through
`Pool.read`, decision trees (`dec` gates and constants) through
`Pool.read_tree`.  This module tokenises and dispatches sections; it
makes no gate itself.  Positions are found only on the error path, where
an unbalanced parenthesis is reported before any other error.  When a text has more than one fault, the first one read is
reported: a circuit form is checked at its ')', so a fault inside an
operand comes before a wrong arity of the form around it (the arity of a
`let` or `dec` whose bindings or variable are at fault still comes
first); a section is read where it stands once the declarations (and
sigma, for the theory) are in, so its fault comes before a later one's.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .circuit import CONST, DEC, VAR, Circuit, Gate, Pool, _form_end, iter_gates
from .classifier import ClassificationProblem
from .dtree import _not_a_tree
from .errors import ParseError, RectifyError


# `_tokens` deletes comments and the blanks after a '('; `_TOKEN` splits alike, with positions.
_COMMENT = re.compile(r";[^\n]*")
_OPEN_BLANKS = re.compile(r"\([ \t\r\n]+")
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")
_ODD_BLANKS = "\x0b\x0c\x1c\x1d\x1e\x1f"  # the blanks of `str.split()` in ASCII other than the four


def _tokens(text: str) -> list[str]:
    """Names, ')' and '(' glued to the name after it; only space, tab, CR and LF are blanks.

    ASCII text without `_ODD_BLANKS` is split by `str.split()`, whose
    blanks there are the four.  Other text can only fail to read; it
    splits on spaces once the four are spaces, so its messages name the
    same tokens.
    """
    if ";" in text:
        text = _COMMENT.sub("", text)
    if "( " in text or "(\t" in text or "(\r" in text or "(\n" in text:
        text = _OPEN_BLANKS.sub("(", text)
    text = text.replace("(", " (").replace(")", " ) ")
    if text.isascii() and not any(odd in text for odd in _ODD_BLANKS):
        return text.split()
    text = text.replace("\t", " ").replace("\r", " ").replace("\n", " ")
    return list(filter(None, text.split(" ")))


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


def _read_one(text: str, read):
    """The one form of `text`, read by `read(tokens, 0)`: `Pool.read` or `Pool.read_tree`."""
    try:
        tokens = _tokens(text) + [")"]  # the ')' closes the top level
        forms, end = read(tokens, 0)
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


def parse_dtree(text: str, pool: Pool) -> Circuit:
    """Parse one decision tree into the pool, against its variable table."""
    return Circuit(pool, _read_one(text, pool.read_tree))


def print_dtree(tree: Circuit) -> str:
    """Canonical text for a decision tree, every path spelled out, with an explicit stack."""
    out: list[str] = []
    todo: list = [tree.root]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.kind == DEC:
            out.append(f"({item.payload.name} ")
            todo.extend((")", item.children[1], " ", item.children[0]))
        elif item.kind == CONST:
            out.append("1" if item.payload else "0")
        else:
            raise _not_a_tree(item)
    return "".join(out)


# ----------------------------------------------------------------------
# problem and tree files


@dataclass(frozen=True)
class ProblemFile:
    pool: Pool
    problem: ClassificationProblem
    sigma: Circuit
    theory: Circuit


@dataclass(frozen=True)
class TreeFile:
    pool: Pool
    problem: ClassificationProblem
    tree: Circuit


_PROBLEM_SECTIONS = ("features", "labels", "sigma", "theory")
_TREE_SECTIONS = ("features", "labels", "tree")


def _read_file(text: str, sections: tuple[str, ...]):
    """The pool, problem and sections of a file, read in order in one pass.

    Each of `sections` must appear once, and no other.  A section that
    needs the pool, met before it, is skipped and read at the end.  Sigma
    is read before theory, so its gates come first in any order of
    sections.
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
            if key not in sections:
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
            else:
                seen[key], i = (pool.read_tree if key == "tree" else pool.read)(tokens, i + 1)
            if pool is None and "features" in seen and "labels" in seen:
                pool = Pool()
                problem = ClassificationProblem(pool.declare(*seen["features"]), pool.declare(*seen["labels"]))
        for key in sections:
            if key not in seen:
                raise ParseError(f"missing section {key!r}")
        for key, start in sorted(later, key=lambda entry: entry[0] == "theory"):
            seen[key] = (pool.read_tree if key == "tree" else pool.read)(tokens, start)[0]
        return pool, problem, seen
    except (RectifyError, IndexError) as error:
        raise _unbalanced(text) or error  # an unbalanced parenthesis is reported first


def _single(section: list, what: str):
    if len(section) != 1:
        raise ParseError(f"section {what!r} needs exactly one entry")
    return section[0]


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file into a fresh pool."""
    pool, problem, seen = _read_file(text, _PROBLEM_SECTIONS)
    sigma = Circuit(pool, _single(seen["sigma"], "sigma"))
    theory = Circuit(pool, _single(seen["theory"], "theory"))
    return ProblemFile(pool, problem, sigma, theory)


def parse_tree_file(text: str) -> TreeFile:
    """Parse a decision-tree file into a fresh pool."""
    pool, problem, seen = _read_file(text, _TREE_SECTIONS)
    if not problem.mono_label:
        raise ParseError("decision-tree files declare exactly one label")
    return TreeFile(pool, problem, Circuit(pool, _single(seen["tree"], "tree")))
