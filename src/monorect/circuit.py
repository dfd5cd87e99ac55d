"""Immutable Boolean circuits over a shared, hash-consed gate pool.

A circuit is a rooted DAG of gates: constants, variable leaves, negation,
n-ary conjunction/disjunction, and decision gates.  A decision gate over x
with children (low, high) is sugar for (!x & low) | (x & high); every
operation treats it by that reading.  Gates are interned per pool, so
building the same gate twice yields the same object and syntactically
identical subcircuits are shared automatically.

Circuits are values: operations never mutate, they return new circuits
whose gates live in the same (append-only) pool.  Size is the number of
arcs in the reachable DAG, counting a shared gate's outgoing arcs once.

A gate's uid is its index in the pool's gate list.  Uids are handed out
in creation order and a gate is created after its children, so uid order
is a topological order: every traversal is one scan down the gate list
from the root's uid (`iter_gates`), and every kernel memoises in a list
indexed by uid.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import BuildError

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

    def negated(self):
        return Literal(self.var, not self.positive)

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


class Gate:
    """One pooled gate.  Never constructed directly; identity is equality."""

    __slots__ = ("kind", "payload", "children", "uid")

    def __init__(self, kind, payload, children, uid):
        self.kind = kind
        self.payload = payload
        self.children = children
        self.uid = uid

    def __repr__(self):
        if self.kind == CONST:
            return f"Gate(const {self.payload})"
        if self.kind == VAR:
            return f"Gate(var {self.payload.name})"
        if self.kind == DEC:
            return f"Gate(dec {self.payload.name})"
        return f"Gate({self.kind}/{len(self.children)})"


class Circuit:
    """A rooted view into a pool's gate DAG.

    Equality is root identity: thanks to interning, two circuits from the
    same pool are == exactly when they are syntactically identical.
    """

    __slots__ = ("pool", "root", "_size")

    def __init__(self, pool: "Pool", root: Gate):
        self.pool = pool
        self.root = root
        self._size = None

    @property
    def size(self) -> int:
        """Number of arcs reachable from the root (shared gates counted once)."""
        if self._size is None:
            self._size = sum(len(g.children) for g in iter_gates(self))
        return self._size

    def vars(self) -> frozenset[VarId]:
        """Variables occurring in the circuit, including decision-gate variables.

        Cached in the pool by root uid, so every view of one root walks once.
        """
        cache = self.pool._vars_of
        found = cache.get(self.root.uid)
        if found is None:
            found = cache[self.root.uid] = frozenset(
                gate.payload for gate in iter_gates(self) if gate.kind == VAR or gate.kind == DEC
            )
        return found

    def __eq__(self, other):
        return (
            isinstance(other, Circuit)
            and self.pool is other.pool
            and self.root is other.root
        )

    def __hash__(self):
        return hash((id(self.pool), self.root.uid))

    def __repr__(self):
        return f"<Circuit {self.root.kind} size={self.size}>"


class Pool:
    """Variable table plus append-only interned gate storage.

    `gates` lists every gate, indexed by uid.  All circuits combined by
    the module's operations must come from the same pool.  Construction
    of a pool is single-writer; once built, gates are immutable and safe
    to read from anywhere.
    """

    def __init__(self):
        self._by_name: dict[str, VarId] = {}
        self._order: list[VarId] = []
        self._interned: dict[tuple, Gate] = {}
        self.gates: list[Gate] = []
        self._vars_of: dict[int, frozenset[VarId]] = {}

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

    def fresh(self, stem: str = "aux") -> VarId:
        """Declare and return a variable with an unused name."""
        i = 0
        while f"{stem}_{i}" in self._by_name:
            i += 1
        return self.declare(f"{stem}_{i}")[0]

    # ------------------------------------------------------------------
    # gate construction (arity checks only; no logical simplification)

    def _gate(self, kind, payload, children: tuple[Gate, ...]) -> Gate:
        # gates hash and compare by identity, so the children tuple is the key
        key = (kind, payload, children)
        gate = self._interned.get(key)
        if gate is None:
            gate = Gate(kind, payload, children, len(self.gates))
            self.gates.append(gate)
            self._interned[key] = gate
        return gate

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
        return Circuit(self, self._gate(CONST, value, ()))

    def literal(self, var: VarId, positive: bool = True) -> Circuit:
        leaf = self._gate(VAR, self._known(var), ())
        if positive:
            return Circuit(self, leaf)
        return Circuit(self, self._gate(NOT, None, (leaf,)))

    def not_(self, c: Circuit) -> Circuit:
        self._owned(c)
        return Circuit(self, self._gate(NOT, None, (c.root,)))

    def and_(self, parts: Iterable[Circuit]) -> Circuit:
        return self._nary(AND, parts)

    def or_(self, parts: Iterable[Circuit]) -> Circuit:
        return self._nary(OR, parts)

    def _nary(self, kind, parts) -> Circuit:
        roots = []
        for c in parts:
            self._owned(c)
            roots.append(c.root)
        if not roots:
            raise BuildError(f"zero-arity {kind!r} gate")
        if len(roots) == 1:
            return Circuit(self, roots[0])
        return Circuit(self, self._gate(kind, None, tuple(roots)))

    def decision(self, var: VarId, low: Circuit, high: Circuit) -> Circuit:
        self._owned(low, high)
        return Circuit(self, self._gate(DEC, self._known(var), (low.root, high.root)))

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

    def read(self, tokens: list[str], i: int) -> tuple[list[Gate], int]:
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
        interned = self._interned
        gates = self.gates
        leaves: dict[str, Gate] = {}  # the gate of each name met, let names included
        bound: dict[str, Gate] = {}  # the let names in scope, in binding order
        done: list[Gate] = []
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
                    key = (op, None, tuple(done[height:]))
                    del done[height:]
                elif op is NOT:
                    if count != 1:
                        raise _arity_error(op, 1, count)
                    key = (NOT, None, (done.pop(),))
                elif op is DEC:
                    if count != 2:
                        raise _arity_error(op, 3, count + 1)
                    high = done.pop()
                    key = (DEC, payload, (done.pop(), high))
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
                        key = (OR, None, (self._gate(NOT, None, (a,)), b))
                    else:
                        both = self._gate(AND, None, (a, b))
                        neither = (self._gate(NOT, None, (a,)), self._gate(NOT, None, (b,)))
                        key = (OR, None, (both, self._gate(AND, None, neither)))
                gate = interned.get(key)
                if gate is None:
                    gate = interned[key] = Gate(key[0], key[1], key[2], len(gates))
                    gates.append(gate)
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
                if token == "true" or token == "false":
                    gate = self._gate(CONST, int(token == "true"), ())
                else:
                    gate = self._gate(VAR, self.var(token), ())
                leaves[token] = gate
                done.append(gate)


# Operators of `Pool.read` frames: gate kinds, and three more.
_IMP, _IFF, _LET, _BIND = "imp", "iff", "let", "bind"
_OPENS = {"(not": NOT, "(and": AND, "(or": OR, "(imp": _IMP, "(iff": _IFF}
_BINDINGS = "let bindings must be a list of (name expr) pairs"


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


def iter_gates(circ: Circuit) -> list[Gate]:
    """Reachable gates in dependency order: children before parents, once each.

    The gates come in ascending uid order.  A gate's children are older
    than the gate, so one scan down from the root's uid that marks the
    children of each marked gate finds every reachable gate; runs of
    unmarked uids are skipped by `bytearray.rfind`, so a small circuit
    built late in a large pool costs little more than its own gates.
    """
    uid = circ.root.uid
    gates = circ.pool.gates
    mark = bytearray(uid + 1)
    mark[uid] = 1
    out = []
    while uid >= 0:
        if mark[uid]:
            gate = gates[uid]
            out.append(gate)
            for child in gate.children:
                mark[child.uid] = 1
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
    """
    if not isinstance(assumption, Term):
        raise TypeError("condition expects a Term")
    if len(assumption) == 0:
        return circ
    (root,) = _substitute(circ, (assumption._value.get,))
    return Circuit(circ.pool, root)


def cofactors(circ: Circuit, var: VarId) -> tuple[Circuit, Circuit]:
    """The circuit conditioned on !var and on var, both built in one sweep.

    The two roots are those of `condition` with each literal.
    """
    low, high = _substitute(circ, ({var: False}.get, {var: True}.get))
    return Circuit(circ.pool, low), Circuit(circ.pool, high)


def _substitute(circ: Circuit, values) -> list[Gate]:
    """The root of `condition` under each of `values`, in one sweep.

    Each value maps a variable to True, False or None (not fixed).
    """
    pool = circ.pool
    true_gate = pool._gate(CONST, 1, ())
    false_gate = pool._gate(CONST, 0, ())
    top = circ.root.uid
    sides = [(value, [None] * (top + 1)) for value in values]
    for gate in iter_gates(circ):
        kind = gate.kind
        kids = gate.children
        for value, memo in sides:
            if kind == CONST:
                new = gate
            elif kind == VAR:
                fixed = value(gate.payload)
                if fixed is None:
                    new = gate
                else:
                    new = true_gate if fixed else false_gate
            elif kind == NOT:
                child = memo[kids[0].uid]
                if child.kind == CONST:
                    new = false_gate if child.payload else true_gate
                elif child is kids[0]:
                    new = gate
                else:
                    new = pool._gate(NOT, None, (child,))
            elif kind == DEC:
                fixed = value(gate.payload)
                low = memo[kids[0].uid]
                high = memo[kids[1].uid]
                if fixed is not None:
                    new = high if fixed else low
                elif low is kids[0] and high is kids[1]:
                    new = gate
                else:
                    new = pool._gate(DEC, gate.payload, (low, high))
            else:
                new = _fold_nary(pool, gate, memo, true_gate, false_gate)
            memo[gate.uid] = new
    return [memo[top] for _, memo in sides]


def _fold_nary(pool, gate, memo, true_gate, false_gate):
    absorbing = false_gate if gate.kind == AND else true_gate
    neutral = true_gate if gate.kind == AND else false_gate
    kids = []
    changed = False
    for child in gate.children:
        new = memo[child.uid]
        if new is not child:
            changed = True
        if new is absorbing:
            return absorbing
        if new is neutral:
            continue
        kids.append(new)
    if len(kids) == len(gate.children) and not changed:
        return gate
    if not kids:
        return neutral
    if len(kids) == 1:
        return kids[0]
    return pool._gate(gate.kind, None, tuple(kids))


def negate(circ: Circuit) -> Circuit:
    """Complement as a wrapper gate; double negation and constants fold away."""
    root = circ.root
    if root.kind == NOT:
        return Circuit(circ.pool, root.children[0])
    if root.kind == CONST:
        return circ.pool.const(1 - root.payload)
    return circ.pool.not_(circ)


def conjoin(a: Circuit, b: Circuit) -> Circuit:
    """Conjunction; adds at most two arcs over the inputs."""
    return _combine(AND, a, b)


def disjoin(a: Circuit, b: Circuit) -> Circuit:
    """Disjunction; adds at most two arcs over the inputs."""
    return _combine(OR, a, b)


def _combine(kind, a, b):
    a.pool._owned(b)
    absorbing = 0 if kind == AND else 1
    for first, second in ((a, b), (b, a)):
        if first.root.kind == CONST:
            return first if first.root.payload == absorbing else second
    if a.root is b.root:
        return a
    return Circuit(a.pool, a.pool._gate(kind, None, (a.root, b.root)))
