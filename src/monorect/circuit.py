"""Immutable Boolean circuits over a shared, hash-consed gate pool.

A circuit is a rooted DAG of gates: constants, variable leaves, negation,
n-ary conjunction/disjunction, and decision gates.  A decision gate over x
with children (low, high) is sugar for (!x & low) | (x & high); every
operation treats it by that reading.  Gates are interned per pool, so
building the same gate twice yields the same gate and syntactically
identical subcircuits are shared automatically.

Circuits are values: operations never mutate, they return new circuits
whose gates live in the same (append-only) pool.  Size is the number of
arcs in the reachable DAG, counting a shared gate's outgoing arcs once.

The pool is the gate store, and a gate is its uid: an index into the
flat lists `Pool._kinds`, `Pool._payloads` and `Pool._children` (a tuple
of child uids, which the collector stops tracking once it has seen it).
Uids are handed out in creation order and a gate is created after its
children, so uid order is a topological order: every traversal is one
scan down the store from the root's uid (`iter_gates`).  Conditioning is
one such scan plus work on the cone of the fixed variables only
(`_substitute`), memoised in a dict of that cone's gates.

Only this module makes gates: `Pool._gate`, `Pool.read` (circuit tokens)
and `Pool.read_tree` (tree text split on '(', with a plan per distinct
chunk) append them to the store and intern them in `Pool._tables`, the
unique table of each kind and payload, keyed by the children tuple the
store keeps.  Every table exists before a gate asks for it: `declare`
adds each variable's tables.  The constants false and true, uids 0 and 1
of every pool, are in no table: every kernel tells a constant by
`uid < 2` and reads its value as the uid.  A `Circuit` (pool and uid) is
the one handle on a gate; its `kind`, `payload` and `children` read the store.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Callable, Collection, Iterable, Iterator, NamedTuple

from .errors import BuildError, ParseError

CONST = "const"
VAR = "var"
NOT = "not"
AND = "and"
OR = "or"
DEC = "dec"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_KEYWORDS = frozenset({"not", "and", "or", "imp", "iff", "dec", "let", "true", "false"})


class VarId(NamedTuple):
    """A declared variable: its position in the pool's order plus its name.

    A named tuple, so hashing and comparison run in C; ids from two pools
    that declare the same names in the same order compare equal.
    """

    index: int
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Literal:
    var: VarId
    positive: bool = True

    def __str__(self):
        return self.var.name if self.positive else "!" + self.var.name


class Term:
    """A consistent conjunction of literals (no variable in both polarities)."""

    __slots__ = ("_value",)

    def __init__(self, literals: Iterable[Literal] = ()):
        value: dict[VarId, bool] = {}
        for lit in literals:
            old = value.get(lit.var)
            if old is not None and old != lit.positive:
                raise ValueError(
                    f"inconsistent term: {lit.var.name} occurs with both polarities"
                )
            value[lit.var] = lit.positive
        self._value = value

    @property
    def literals(self) -> tuple[Literal, ...]:
        items = sorted(self._value.items(), key=lambda kv: kv[0].index)
        return tuple(Literal(var, pos) for var, pos in items)

    def value(self, var: VarId):
        """True/False if the term fixes the variable, None otherwise."""
        return self._value.get(var)

    def vars(self) -> frozenset[VarId]:
        return frozenset(self._value)

    def __len__(self):
        return len(self._value)

    def __eq__(self, other):
        return isinstance(other, Term) and self._value == other._value

    def __hash__(self):
        return hash(frozenset(self._value.items()))

    def __repr__(self):
        body = " ".join(str(lit) for lit in self.literals)
        return f"Term({body})" if body else "Term()"


class Circuit:
    """A gate of a pool as a rooted circuit: the pool and the gate's uid.

    Equality is root identity: thanks to interning, two circuits from the
    same pool are == exactly when they are syntactically identical.
    `kind`, `payload` and `children` (circuits too) read the root gate's entry.
    A circuit is a value that hashes by its pool and uid, so both are read-only.
    """

    __slots__ = ("_pool", "_uid")

    def __init__(self, pool: "Pool", uid: int):
        self._pool, self._uid = pool, uid

    pool = property(attrgetter("_pool"))
    uid = property(attrgetter("_uid"))
    kind = property(lambda self: self._pool._kinds[self._uid])
    payload = property(lambda self: self._pool._payloads[self._uid])

    @property
    def children(self) -> tuple[Circuit, ...]:
        return tuple(Circuit(self._pool, uid) for uid in self._pool._children[self._uid])

    @property
    def size(self) -> int:
        """Number of arcs reachable from the root (shared gates counted once); walks each read."""
        children = self._pool._children
        return sum(len(children[uid]) for uid in iter_gates(self))

    def vars(self) -> frozenset[VarId]:
        """Variables occurring in the circuit, including decision-gate variables; walks each call."""
        kinds, payloads = self._pool._kinds, self._pool._payloads
        return frozenset(
            payloads[uid] for uid in iter_gates(self) if kinds[uid] == VAR or kinds[uid] == DEC
        )

    def vars_outside(self, allowed: Collection[VarId]) -> frozenset[VarId]:
        """The circuit's variables that are not in `allowed`.

        Gates mention only variables their pool declares, so when the pool
        declares none outside `allowed` the answer is empty and no gate is
        walked; otherwise this reads `vars`.
        """
        allowed = frozenset(allowed)
        if allowed.issuperset(self._pool._order):
            return frozenset()
        return self.vars() - allowed

    def __eq__(self, other):
        return isinstance(other, Circuit) and self._pool is other._pool and self._uid == other._uid

    def __hash__(self):
        return hash((id(self._pool), self._uid))

    def __repr__(self):
        return f"<Circuit {self.kind} size={self.size}>"


class Pool:
    """Variable table plus append-only interned gate storage.

    The store is three lists indexed by uid, with one unique table per
    gate kind and payload in `_tables`; uids 0 and 1 are the constants
    false and true, which no table holds.  All circuits combined by the
    module's operations must come from the same pool.  Construction of a
    pool is single-writer; once built, gates are immutable and safe to
    read from anywhere.

    Every variable a gate mentions is one the pool declares: `literal`
    and `decision` check it, `read` and `read_tree` resolve names
    against the table, and the kernels only reuse the payloads of
    existing gates.  So a circuit checked against a superset of the
    declarations needs no walk (`Circuit.vars_outside`).  The pool keeps
    nothing derived from its gates: each `Circuit.vars` call walks.

    Decision trees share the store: a tree is a circuit of `dec` gates
    and constants (see `dtree`), read by `read_tree` from text split on
    '(', each distinct piece planned once per read (`_plan`).
    """

    def __init__(self):
        self._by_name: dict[str, VarId] = {}
        self._order: list[VarId] = []
        # the unique tables: kind -> payload -> children -> uid; `declare` fills `var` and `dec`
        self._tables: dict[str, dict] = {NOT: {None: {}}, AND: {None: {}}, OR: {None: {}}, VAR: {}, DEC: {}}
        self._kinds: list[str] = [CONST, CONST]
        self._payloads: list = [0, 1]
        self._children: list[tuple[int, ...]] = [(), ()]

    # ------------------------------------------------------------------
    # variables

    def declare(self, *names: str) -> tuple[VarId, ...]:
        """Declare variables in order; returns their ids."""
        out = []
        for name in names:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise BuildError(f"invalid variable name {name!r}")
            if name in _KEYWORDS:
                raise BuildError(f"variable name {name!r} is a reserved word")
            if name in self._by_name:
                raise BuildError(f"duplicate variable {name!r}")
            vid = VarId(len(self._order), name)
            self._by_name[name] = vid
            self._order.append(vid)
            self._tables[VAR][vid] = {}
            self._tables[DEC][vid] = {}
            out.append(vid)
        return tuple(out)

    def var(self, name: str) -> VarId:
        try:
            return self._by_name[name]
        except KeyError:
            raise BuildError(f"unknown identifier {name!r}") from None

    @property
    def variables(self) -> tuple[VarId, ...]:
        return tuple(self._order)

    def fresh(self) -> VarId:
        """Declare and return a variable with an unused name, aux_0, aux_1, ..."""
        i = 0
        while f"aux_{i}" in self._by_name:
            i += 1
        return self.declare(f"aux_{i}")[0]

    # ------------------------------------------------------------------
    # gate construction (arity checks only; no logical simplification)

    def _gate(self, kind, payload, children: tuple[int, ...]) -> int:
        """The interned gate of this kind, payload and children; a new one keeps `children` as its key."""
        table = self._tables[kind][payload]
        uid = table.get(children)
        if uid is None:
            uid = table[children] = len(self._kinds)
            self._kinds.append(kind)
            self._payloads.append(payload)
            self._children.append(children)
        return uid

    def _owned(self, *circuits: Circuit):
        for c in circuits:
            if c.pool is not self:
                raise ValueError("circuit belongs to a different pool")

    def _known(self, var: VarId) -> VarId:
        if self._by_name.get(var.name) != var:
            raise BuildError(f"variable {var.name!r} is not declared in this pool")
        return var

    def const(self, value: int) -> Circuit:
        if value not in (0, 1):
            raise BuildError(f"constant must be 0 or 1, got {value!r}")
        return Circuit(self, int(value))

    def literal(self, var: VarId, positive: bool = True) -> Circuit:
        leaf = self._gate(VAR, self._known(var), ())
        if positive:
            return Circuit(self, leaf)
        return Circuit(self, self._gate(NOT, None, (leaf,)))

    def not_(self, c: Circuit) -> Circuit:
        self._owned(c)
        return Circuit(self, self._gate(NOT, None, (c.uid,)))

    def and_(self, parts: Iterable[Circuit]) -> Circuit:
        return self._nary(AND, parts)

    def or_(self, parts: Iterable[Circuit]) -> Circuit:
        return self._nary(OR, parts)

    def _nary(self, kind, parts) -> Circuit:
        roots = []
        for c in parts:
            self._owned(c)
            roots.append(c.uid)
        if not roots:
            raise BuildError(f"zero-arity {kind!r} gate")
        if len(roots) == 1:
            return Circuit(self, roots[0])
        return Circuit(self, self._gate(kind, None, tuple(roots)))

    def decision(self, var: VarId, low: Circuit, high: Circuit) -> Circuit:
        self._owned(low, high)
        return Circuit(self, self._gate(DEC, self._known(var), (low.uid, high.uid)))

    # ------------------------------------------------------------------
    # reading expressions

    def build(self, expr) -> Circuit:
        """Build a circuit from a nested-list expression.

        The forms are those of the text format (see `formats`) as lists,
        such as ["let", [["g", ["and", "x1", "x2"]]], ["or", "g", True]];
        True and False are the constants.  The list is spelled out as the
        tokens of its text and read by `read`, so it builds the gates,
        uids and errors that the text does.
        """
        return Circuit(self, self.read(_spell_tokens(expr), 0)[0][0])

    def read(self, tokens: list[str], i: int) -> tuple[list[int], int]:
        """The gates of the expressions from tokens[i] to the ')' closing them, and the index after it.

        Tokens are names, ')' and '(' glued to the name after it (see
        `formats._tokens`).  One loop, with explicit stacks: `done` holds
        the built operands, `opened` a frame per open form (its operator,
        the height of `done` at its '(' and a payload).  A form's gates
        are interned at its ')', so uids come out in the order of a
        recursive descent.  Its arity is checked there too, so an error in
        an operand comes first; a `let`'s bindings and a `dec`'s variable
        are checked where they stand, each after its form's arity.
        """
        tables = self._tables
        kinds, payloads, children = self._kinds, self._payloads, self._children
        leaves: dict[str, int] = {"true": 1, "false": 0}  # each name's gate, let names included
        bound: dict[str, int] = {}  # the let names in scope, in binding order
        done: list[int] = []
        opened: list[tuple] = []
        pairs = False  # whether tokens[i] opens a let binding or ends the bindings
        while True:
            token = tokens[i]
            i += 1
            if pairs:
                pairs = False
                name = token[1:]
                if token == ")":
                    continue
                if token[0] != "(" or not name:
                    why = _BINDINGS
                elif name in self._by_name or name in _KEYWORDS or name in bound:
                    why = ("a declared variable" if name in self._by_name
                           else "a reserved word" if name in _KEYWORDS else "already bound")
                    why = f"duplicate let binding {name!r}: {why}"
                else:
                    opened.append((_BIND, len(done), name))
                    continue
                raise _fault(tokens, opened[-1][2][0], 2, why)
            if token == ")":
                if not opened:
                    return done, i
                op, height, payload = opened.pop()
                count = len(done) - height
                if op is _BIND:
                    if count != 1:
                        raise _fault(tokens, opened[-1][2][0], 2, _BINDINGS)
                    bound[payload] = leaves[payload] = done.pop()
                    pairs = True
                    continue
                elif op is AND or op is OR:
                    if count == 1:
                        continue
                    if not count:
                        raise BuildError(f"zero-arity {op!r} gate")
                    kids = tuple(done[height:])
                    del done[height:]
                elif op is NOT:
                    if count != 1:
                        raise _arity_error(op, 1, count)
                    kids = (done.pop(),)
                elif op is DEC:
                    if count != 2:
                        raise _arity_error(op, 3, count + 1)
                    high = done.pop()
                    kids = (done.pop(), high)
                elif op is _LET:
                    if count != 1:
                        raise _arity_error(op, 2, count + 1)
                    for _ in range(len(bound) - payload[1]):  # unbind its names, the last bound
                        del leaves[bound.popitem()[0]]
                    continue
                else:  # imp or iff
                    if count != 2:
                        raise _arity_error(op, 2, count)
                    b = done.pop()
                    a = done.pop()
                    if op is _IMP:
                        kids = (self._gate(NOT, None, (a,)), b)
                    else:
                        both = self._gate(AND, None, (a, b))
                        neither = (self._gate(NOT, None, (a,)), self._gate(NOT, None, (b,)))
                        kids = (both, self._gate(AND, None, neither))
                    op = OR
                table = tables[op][payload]
                gate = table.get(kids)
                if gate is None:
                    gate = table[kids] = len(kinds)
                    kinds.append(op)
                    payloads.append(payload)
                    children.append(kids)
                done.append(gate)
                continue
            gate = leaves.get(token)
            if gate is not None:
                done.append(gate)
                continue
            op = _OPENS.get(token)
            if op is not None:
                opened.append((op, len(done), None))
            elif token == "(dec":
                name = tokens[i]
                var = self._by_name.get(name)  # never a let name
                if var is None:
                    why = "decision gate needs a declared variable"
                    raise _fault(tokens, i - 1, 3, why if name[0] == "(" or name in bound
                                 else f"unknown identifier {name!r}")
                opened.append((DEC, len(done), var))
                i += 1
            elif token == "(let":
                if tokens[i] != "(":
                    raise _fault(tokens, i - 1, 2, _BINDINGS)
                opened.append((_LET, len(done), (i - 1, len(bound))))
                i += 1
                pairs = True
            elif token[0] == "(":
                raise BuildError(f"unknown operator {token[1:]!r}" if token != "("
                                 else "malformed expression: '(' must be followed by an operator")
            else:
                gate = leaves[token] = self._gate(VAR, self.var(token), ())
                done.append(gate)

    def read_tree(
        self, chunks: Iterator[str], first: list[str], split: Callable[[str], list[str]]
    ) -> tuple[list[int], tuple]:
        """The decision trees from `first` and `chunks` to the ')' closing them, and the steps
        left of the last chunk read.

        The text comes split on '(' (see `formats._chunks`): `first` is the
        tokens before the first chunk, and each chunk is the text after one
        '(', which `split` cuts into tokens.  The read takes chunks from
        `chunks` only up to its ')'.  The first time it meets a chunk it
        makes the chunk's plan (`_plan`) and keeps it for the rest of the
        read; every later copy of the chunk replays the plan.  A node is
        interned in its variable's `dec` table at its ')', so equal subtrees
        are one gate and uids come out in the order of a recursive descent.
        A fault found while planning is raised when the walk reaches its
        place, so the first fault of the text is the one raised.
        """
        kinds, payloads, children = self._kinds, self._payloads, self._children
        plans = {"(": self._plan(first, False)}  # "(" is no chunk: it stands for `first`
        done: list[int] = []
        opened: list = []  # flat: each open node's (variable, table), then the height of `done`
        for chunk in chain(("(",), chunks):
            plan = plans.get(chunk)
            if plan is None:
                plan = plans[chunk] = self._plan(split(chunk))
            head, steps = plan
            if head.__class__ is int:
                done.append(head)
            elif head.__class__ is tuple:
                opened.append(head)
                opened.append(len(done))
            elif head is not None:
                raise head
            if steps:
                walk = iter(steps)
                for step in walk:
                    if step is None:  # a ')'
                        if not opened:
                            return done, tuple(walk)
                        if len(done) != opened.pop() + 2:  # the node's two subtrees, and nothing else
                            raise ParseError(_NODE)
                        var_id, table = opened.pop()
                        high = done.pop()
                        kids = (done.pop(), high)
                        gate = table.get(kids)
                        if gate is None:
                            gate = table[kids] = len(kinds)
                            kinds.append(DEC)
                            payloads.append(var_id)
                            children.append(kids)
                        done.append(gate)
                    elif step.__class__ is int:
                        done.append(step)
                    else:
                        raise step
        raise ParseError("missing ')'")

    def _plan(self, tokens: list[str], headed: bool = True) -> tuple:
        """A chunk's plan for `read_tree`: its head, then a step for each token after the head.

        The head is the node's (variable, `dec` table), read from the pool's
        declarations, or the interned gate of a node of two leaves,
        `(x 0 1)`, or the error of a fault; the text before the first chunk
        has none.  A step is a leaf's constant (its uid, 0 or 1), None for a
        ')', or a fault's error, last.
        """
        head = None
        if headed:
            if not tokens or tokens[0] == ")":
                return ParseError(_NODE), ()
            try:
                var_id = self.var(tokens[0])
            except BuildError as error:
                return error, ()
            head = (var_id, self._tables[DEC][var_id])
            tokens = tokens[1:]
        steps: list = []
        for token in tokens:
            if token == ")":
                steps.append(None)
            elif token in _LEAVES:
                steps.append(_LEAVES[token])
            else:
                steps.append(ParseError(f"decision-tree leaf must be 0 or 1, got {token!r}"))
                break
        if head and len(steps) > 2 and steps[2] is None and steps[0] is not None and steps[1] is not None:
            return self._gate(DEC, head[0], tuple(steps[:2])), tuple(steps[3:])
        return head, tuple(steps)


# Operators of `Pool.read` frames: gate kinds, and three more.
_IMP, _IFF, _LET, _BIND = "imp", "iff", "let", "bind"
_OPENS = {"(not": NOT, "(and": AND, "(or": OR, "(imp": _IMP, "(iff": _IFF}
_BINDINGS = "let bindings must be a list of (name expr) pairs"
# The tree reader's leaf tokens with their constants' uids, and its message for a node
# that is not (variable low high).
_LEAVES = {"0": 0, "1": 1}
_NODE = "decision-tree node must be (variable low high)"


def _arity_error(op, n, count) -> BuildError:
    return BuildError(f"{op!r} expects {n} argument(s), got {count}")


def _fault(tokens, start, n, message) -> BuildError:
    """The error of the form opened at tokens[start], of `n` arguments: a wrong arity, else `message`."""
    count = _form_end(tokens, start + 1)[0]
    return _arity_error(tokens[start][1:], n, count) if count != n else BuildError(message)


def _form_end(tokens: list[str], i: int) -> tuple[int, int]:
    """The number of items from tokens[i] to the ')' closing them, and the index after it."""
    count = depth = 0
    while True:
        token = tokens[i]
        i += 1
        if token == ")":
            if not depth:
                return count, i
            depth -= 1
        else:
            count += not depth
            depth += token[0] == "("


def _spell_tokens(expr) -> list[str]:
    """The tokens of a nested-list expression's text, then a ')' closing the top level."""
    tokens = []
    todo = [expr]
    while todo:
        item = todo.pop()
        if item is _CLOSE:
            tokens.append(")")
        elif isinstance(item, bool):
            tokens.append("true" if item else "false")
        elif isinstance(item, str) and item and item[0] != "(" and item != ")":
            if tokens and tokens[-1] == "(":  # a list's head is glued to its '('
                tokens[-1] += item
            else:
                tokens.append(item)
        elif isinstance(item, (list, tuple)):
            tokens.append("(")
            todo.append(_CLOSE)
            todo.extend(reversed(item))
        else:
            raise BuildError(f"malformed expression {item!r}")
    tokens.append(")")
    return tokens


_CLOSE = object()


def iter_gates(circ: Circuit) -> list[int]:
    """Reachable gates' uids in dependency order: children before parents, once each.

    The uids come in ascending order.  A gate's children are older than
    the gate, so one scan down from the root's uid that marks the
    children of each marked gate finds every reachable gate; runs of
    unmarked uids are skipped by `bytearray.rfind`, so for a small
    circuit built late in a large pool the scan costs little more than
    its own gates.  So does conditioning, which beyond the scan works and
    memoises only on the gates above a fixed variable or a folded
    constant.  The gate interpreter `semantics._table` and the use count
    of `formats.print_circuit` still allocate a list of root uid + 1
    entries, so they cost O(root uid) on such a circuit.
    """
    uid = circ.uid
    children = circ.pool._children
    mark = bytearray(uid + 1)
    mark[uid] = 1
    out = []
    while uid >= 0:
        if mark[uid]:
            out.append(uid)
            for child in children[uid]:
                mark[child] = 1
            uid -= 1
        else:
            uid = mark.rfind(1, 0, uid)
    out.reverse()
    return out


def condition(circ: Circuit, assumption: Term) -> Circuit:
    """Substitute the term's literals into the circuit.

    Variable leaves fixed by the term become constants, decision gates over
    a fixed variable collapse to the selected child, and constants are
    folded locally on the way up (a false child kills a conjunction, true
    children are dropped, and dually for disjunctions).  The result never
    mentions a variable of the term and is never larger than the input.
    It costs one scan of the circuit plus work on the cone of the term's
    variables (see `_substitute`).
    """
    if not isinstance(assumption, Term):
        raise TypeError("condition expects a Term")
    if len(assumption) == 0:
        return circ
    (root,) = _substitute(circ, (assumption._value,))
    return Circuit(circ.pool, root)


def cofactors(circ: Circuit, var: VarId) -> tuple[Circuit, Circuit]:
    """The circuit conditioned on !var and on var, both built in one sweep.

    The two roots are those of `condition` with each literal; the sweep
    is one scan plus work on the variable's cone, so a circuit that never
    mentions `var` and folds no constant comes back twice as itself.
    """
    low, high = _substitute(circ, ({var: False}, {var: True}))
    return Circuit(circ.pool, low), Circuit(circ.pool, high)


def _substitute(circ: Circuit, sides) -> list[int]:
    """The root of `condition` under each of `sides` (dicts from variable to bit), in one scan.

    Every side fixes the same variables.  Only live gates get per-side
    work: a `var` or `dec` gate on a fixed variable, an `and`, `or` or
    `not` gate with a constant child, and a gate with a live child.  Every
    other gate is its own result on every side, as every node below the
    variable is in the cofactor of an ordered BDD (Bryant 1986), so each
    side's memo holds the live gates only and a child reads
    `memo.get(kid, kid)`.  A live gate's result neither mentions a fixed
    variable nor folds a constant, so it is never the gate itself.  The
    work beyond the scan is proportional to the cone of the fixed
    variables and of the folded constants.
    """
    pool = circ.pool
    kinds, payloads, children = pool._kinds, pool._payloads, pool._children
    memos: list[dict[int, int]] = [{} for _ in sides]
    pairs = list(zip(sides, memos))
    live = memos[0].keys()  # every side's memo holds the same gates
    for gate in iter_gates(circ):
        kind = kinds[gate]
        kids = children[gate]
        if live.isdisjoint(kids) and (
            payloads[gate] not in sides[0] if kind == VAR or kind == DEC
            else 0 not in kids and 1 not in kids  # the constants' uids; a constant has no child
        ):
            continue
        for side, memo in pairs:
            if kind == VAR:
                new = 1 if side[payloads[gate]] else 0  # the constant's uid
            elif kind == NOT:
                child = memo.get(kids[0], kids[0])
                new = 1 - child if child < 2 else pool._gate(NOT, None, (child,))
            elif kind == DEC:
                bit = side.get(payloads[gate])
                low = memo.get(kids[0], kids[0])
                high = memo.get(kids[1], kids[1])
                if bit is not None:
                    new = high if bit else low
                else:
                    new = pool._gate(DEC, payloads[gate], (low, high))
            else:
                new = _fold_nary(pool, kind, tuple(map(memo.get, kids, kids)))
            memo[gate] = new
    return [memo.get(circ.uid, circ.uid) for memo in memos]


def _fold_nary(pool, kind, kids):
    """The `kind` gate (`and` or `or`) over the child uids `kids`, its constant children folded."""
    absorbing, neutral = (0, 1) if kind == AND else (1, 0)
    if absorbing in kids:
        return absorbing
    if neutral in kids:
        kids = tuple(child for child in kids if child != neutral)
        if len(kids) < 2:
            return kids[0] if kids else neutral
    return pool._gate(kind, None, kids)


def negate(circ: Circuit) -> Circuit:
    """Complement as a wrapper gate; double negation and constants fold away."""
    pool, uid = circ.pool, circ.uid
    if uid < 2:
        return Circuit(pool, 1 - uid)
    if pool._kinds[uid] == NOT:
        return Circuit(pool, pool._children[uid][0])
    return pool.not_(circ)


def conjoin(a: Circuit, b: Circuit) -> Circuit:
    """Conjunction: `_fold_nary` folds the two roots; adds at most two arcs over the inputs."""
    return _combine(AND, a, b)


def disjoin(a: Circuit, b: Circuit) -> Circuit:
    """Disjunction: `_fold_nary` folds the two roots; adds at most two arcs over the inputs."""
    return _combine(OR, a, b)


def _combine(kind, a, b):
    pool = a.pool
    pool._owned(b)
    return a if a == b else Circuit(pool, _fold_nary(pool, kind, (a.uid, b.uid)))
