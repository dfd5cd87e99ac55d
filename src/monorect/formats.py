"""Text formats: circuit expressions, decision trees, and problem files.

Everything is an s-expression over UTF-8 text; `;` starts a comment that
runs to the end of the line.

Circuit expressions::

    expr    := 'true' | 'false' | NAME
             | '(' 'not' expr ')'
             | '(' 'and' expr+ ')' | '(' 'or' expr+ ')'
             | '(' 'imp' expr expr ')' | '(' 'iff' expr expr ')'
             | '(' 'dec' NAME expr expr ')'          low branch first
             | '(' 'let' '(' binding* ')' expr ')'
    binding := '(' NAME expr ')'                     shared subcircuit

Decision trees::

    tree := '0' | '1' | '(' NAME tree tree ')'       low (NAME = 0) first

Problem files are a sequence of top-level forms, in any order, each
required exactly once::

    (features NAME+)
    (labels NAME+)       disjoint from the features
    (sigma EXPR)         the classifier circuit
    (theory EXPR)        the background knowledge

Decision-tree files (inputs of the dt-rectify command), read as problem files are::

    (features NAME+)
    (labels NAME+)       disjoint from the features; dt-rectify needs one
    (tree TREE)

Printers emit a canonical single-space form; reparsing printed output
reproduces the original structure exactly.  The circuit printer names
every shared gate in a `let`, so its output is linear in the arc count,
and both printers work with explicit stacks, like the readers.

Readers delete comments, then make one pass straight to pooled gates.
Circuits and problem files, without the blanks after each '(', are split
into tokens with string methods and read by `Pool.read`.  Decision trees
(`dec` gates and constants) are split on '(' into chunks, the text from
one '(' to the next, and read by `Pool.read_tree`, which plans each
distinct chunk once per read and replays the plan at every copy, so the
tree path never makes a list of tokens.  One section reader serves both
file kinds, over tokens (`_Tokens`) or chunks (`_Chunks`).  This module
splits texts and dispatches sections; it makes no gate itself.
Positions are found only on the error path, where an unbalanced
parenthesis is reported before any other error.  When a text has more
than one fault, the first one read is reported, in trees too, where a
fault met while planning a chunk waits until the walk reaches it: a
circuit form is checked at its ')', so a fault inside an
operand comes before a wrong arity of the form around it (the arity of a
`let` or `dec` whose bindings or variable are at fault still comes
first); a section is read where it stands once the declarations (and
sigma, for the theory) are in, so its fault comes before a later one's.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import length_hint
from typing import Sequence

from .circuit import DEC, VAR, Circuit, Pool, _form_end, iter_gates
from .classifier import ClassificationProblem
from .dtree import _not_a_tree
from .errors import ParseError, RectifyError


# `_tokens` deletes comments and the blanks after a '('; `_TOKEN` splits alike, with positions.
_COMMENT = re.compile(r";[^\n]*")
_OPEN_BLANKS = re.compile(r"\([ \t\r\n]+")
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")
_ODD_BLANKS = "\x0b\x0c\x1c\x1d\x1e\x1f"  # the blanks of `str.split()` in ASCII other than the four
_TOP_LEVEL = "top-level forms must look like (keyword ...)"


def _splitter(text: str):
    """The function that cuts pieces of a text without comments into names and ')'s.

    Only space, tab, CR and LF are blanks.  ASCII text without
    `_ODD_BLANKS` is cut by `str.split()`, whose blanks there are the
    four.  Other text can only fail to read; it is cut on spaces once the
    four are spaces, so its messages name the same tokens.
    """
    return _split if text.isascii() and not any(odd in text for odd in _ODD_BLANKS) else _split_odd


def _split(piece: str) -> list[str]:
    return piece.replace(")", " ) ").split()


def _split_odd(piece: str) -> list[str]:
    piece = piece.replace(")", " ) ").replace("\t", " ").replace("\r", " ").replace("\n", " ")
    return list(filter(None, piece.split(" ")))


def _tokens(text: str) -> list[str]:
    """Names, ')' and '(' glued to the name after it."""
    text = _OPEN_BLANKS.sub("(", _COMMENT.sub("", text) if ";" in text else text)
    return _splitter(text)(text.replace("(", " ("))


def _chunks(text: str):
    """The text, comments deleted, split on '(' into pieces, and the `_splitter` of the pieces."""
    text = _COMMENT.sub("", text) if ";" in text else text
    return text.split("("), _splitter(text)


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


def _read_one(text: str, source, pool: Pool) -> int:
    """The one form of `text`, read into the pool through `source` (`_Tokens` or `_Chunks`)."""
    try:
        src = source(text + "\n)")  # the ')' closes the top level, after the end of any comment
        forms, at = src.read(pool, src.start)
        if len(forms) != 1 or not src.at_end(at):
            raise ParseError("expected exactly one expression" if forms else "empty input")
        return forms[0]
    except (RectifyError, IndexError) as error:  # IndexError: a ')' is missing
        raise _unbalanced(text) or error  # an unbalanced parenthesis is reported first


class _Tokens:
    """A text read through `Pool.read`: its `_tokens`, and positions that index them."""

    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.start = 0

    def at_end(self, i: int) -> bool:
        return i == len(self.tokens)

    def head(self, i: int) -> tuple[str, int]:
        """The keyword of the top-level form at i, and where its items start."""
        token = self.tokens[i]
        if token[0] != "(" or len(token) == 1:
            raise ParseError(_TOP_LEVEL)
        return token[1:], i + 1

    def names(self, i: int) -> tuple[list[str] | None, int]:
        """The names from i to the form's ')', None if a form is among them, and the end."""
        count, end = _form_end(self.tokens, i)
        return (self.tokens[i : end - 1] if count == end - i - 1 else None), end

    def skip(self, i: int) -> int:
        return _form_end(self.tokens, i)[1]

    def read(self, pool: Pool, i: int) -> tuple[list[int], int]:
        return pool.read(self.tokens, i)


class _Chunks:
    """A text read through `Pool.read_tree`: its `_chunks`, and positions that are the index
    of the next chunk and the tokens (or, after a read, the steps) left of the one before.
    """

    def __init__(self, text: str):
        self.chunks, self.split = _chunks(text)
        self.start = 1, self.split(self.chunks[0])

    def at_end(self, at: tuple[int, Sequence]) -> bool:
        return at[0] == len(self.chunks) and not at[1]

    def head(self, at: tuple[int, Sequence]) -> tuple[str, tuple[int, Sequence]]:
        k, left = at
        tokens = None if left else self.split(self.chunks[k])
        if not tokens or tokens[0] == ")":
            raise ParseError(_TOP_LEVEL)
        return tokens[0], (k + 1, tokens[1:])

    def names(self, at: tuple[int, Sequence]) -> tuple[list[str] | None, tuple[int, Sequence]]:
        k, left = at
        if ")" not in left:  # a form is among the names
            return None, at
        end = left.index(")")
        return left[:end], (k, left[end + 1 :])

    def skip(self, at: tuple[int, Sequence]) -> tuple[int, Sequence]:
        k, tokens = at
        depth = 1
        while True:
            for j, token in enumerate(tokens):
                if token == ")":
                    depth -= 1
                    if not depth:
                        return k, tokens[j + 1 :]
            tokens = self.split(self.chunks[k])
            k += 1
            depth += 1

    def read(self, pool: Pool, at: tuple[int, Sequence]) -> tuple[list[int], tuple[int, Sequence]]:
        chunks = iter(self.chunks[at[0] :])
        trees, left = pool.read_tree(chunks, at[1], self.split)
        return trees, (len(self.chunks) - length_hint(chunks), left)  # the first chunk not taken


# ----------------------------------------------------------------------
# circuits


def parse_circuit(text: str, pool: Pool) -> Circuit:
    """Parse one circuit expression against the pool's variable table."""
    return Circuit(pool, _read_one(text, _Tokens, pool))


def print_circuit(circ: Circuit) -> str:
    """Canonical text for a circuit, linear in its arc count.

    A gate used more than once, other than a constant or a variable, is
    spelled out once, as a `let` binding that precedes every use; the
    names g0, g1, ... skip the pool's variable names.
    """
    pool = circ.pool
    kinds, children = pool._kinds, pool._children
    gates = iter_gates(circ)
    uses = [0] * (circ.uid + 1)
    for gate in gates:
        for child in children[gate]:
            uses[child] += 1
    taken = {v.name for v in pool.variables}
    names: dict[int, str] = {}
    out = ["(let ("]
    i = 0
    for gate in gates:  # children first, so a binding uses earlier names only
        if uses[gate] > 1 and gate > 1 and kinds[gate] != VAR:
            while f"g{i}" in taken:
                i += 1
            out.append(f"(g{i} ")
            _spell(pool, gate, names, out)
            out.append(") ")
            names[gate] = f"g{i}"
            i += 1
    body: list[str] = []
    _spell(pool, circ.uid, names, body)
    if not names:
        return "".join(body)
    out[-1] = ")) "
    return "".join(out) + "".join(body) + ")"


def _spell(pool: Pool, gate: int, names: dict[int, str], out: list[str]):
    """Append the text of the pool's `gate` to `out`, with the names of named gates below it."""
    kinds, payloads, children = pool._kinds, pool._payloads, pool._children
    todo: list = [gate]
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            out.append(item)
        elif item in names:
            out.append(names[item])
        elif item < 2:
            out.append("true" if item else "false")
        elif kinds[item] == VAR:
            out.append(payloads[item].name)
        else:
            out.append(f"(dec {payloads[item].name}" if kinds[item] == DEC else f"({kinds[item]}")
            todo.append(")")
            for child in reversed(children[item]):
                todo.append(child)
                todo.append(" ")


# ----------------------------------------------------------------------
# decision trees


def parse_dtree(text: str, pool: Pool) -> Circuit:
    """Parse one decision tree into the pool, against its variable table."""
    return Circuit(pool, _read_one(text, _Chunks, pool))


def print_dtree(tree: Circuit) -> str:
    """Canonical text for a decision tree, every path spelled out, with an explicit stack.

    Each distinct node is spelled once.  Every piece starts with the
    blank before it (the root's is cut at the end), so a node's text is
    the same wherever it stands: `starts` and `ends` keep where its pieces
    lie in `out`, and every later use of the node copies that slice.  The
    stack holds uids, and ~uid for the end of a node.
    """
    kinds, payloads, children = tree.pool._kinds, tree.pool._payloads, tree.pool._children
    out: list[str] = []
    starts: dict[int, int] = {}
    ends: dict[int, int] = {}
    todo = [tree.uid]
    while todo:
        item = todo.pop()
        if item < 2:  # the constants' uids, or a node's end
            if item < 0:
                out.append(")")
                ends[~item] = len(out)
            else:
                out.append(" 1" if item else " 0")
            continue
        end = ends.get(item)
        if end is not None:
            out += out[starts[item]:end]
        elif kinds[item] == DEC:
            starts[item] = len(out)
            out.append(f" ({payloads[item].name}")
            low, high = children[item]
            todo.extend((~item, high, low))
        else:
            raise _not_a_tree(kinds[item])
    out[0] = out[0][1:]
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


def _read_file(text: str, sections: tuple[str, ...], source):
    """The pool, problem and sections of a file, read in order in one pass through `source`.

    Each of `sections` must appear once, and no other.  A section that
    needs the pool, met before it, is skipped and read at the end.  Sigma
    is read before theory, so its gates come first in any order of
    sections.
    """
    try:
        src = source(text)
        seen: dict[str, list | None] = {}
        later: list[tuple[str, object]] = []  # sections read at the end, and where they start
        pool = problem = None
        at = src.start
        while not src.at_end(at):
            key, at = src.head(at)
            if key not in sections:
                raise ParseError(f"unknown section {key!r}")
            if key in seen:
                raise ParseError(f"duplicate section {key!r}")
            if key in ("features", "labels"):
                seen[key], at = src.names(at)
                if not seen[key]:
                    raise ParseError(f"{key} must be a non-empty list of names")
            elif pool is None or (key == "theory" and seen.get("sigma") is None):
                later.append((key, at))
                seen[key], at = None, src.skip(at)
            else:
                seen[key], at = src.read(pool, at)
            if pool is None and "features" in seen and "labels" in seen:
                pool = Pool()
                problem = ClassificationProblem(pool.declare(*seen["features"]), pool.declare(*seen["labels"]))
        for key in sections:
            if key not in seen:
                raise ParseError(f"missing section {key!r}")
        for key, start in sorted(later, key=lambda entry: entry[0] == "theory"):
            seen[key] = src.read(pool, start)[0]
        return pool, problem, seen
    except (RectifyError, IndexError) as error:
        raise _unbalanced(text) or error  # an unbalanced parenthesis is reported first


def _single(section: list, what: str):
    if len(section) != 1:
        raise ParseError(f"section {what!r} needs exactly one entry")
    return section[0]


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file into a fresh pool."""
    pool, problem, seen = _read_file(text, _PROBLEM_SECTIONS, _Tokens)
    sigma = Circuit(pool, _single(seen["sigma"], "sigma"))
    theory = Circuit(pool, _single(seen["theory"], "theory"))
    return ProblemFile(pool, problem, sigma, theory)


def parse_tree_file(text: str) -> TreeFile:
    """Parse a decision-tree file into a fresh pool; its labels are read as a problem file's."""
    pool, problem, seen = _read_file(text, _TREE_SECTIONS, _Chunks)
    return TreeFile(pool, problem, Circuit(pool, _single(seen["tree"], "tree")))
