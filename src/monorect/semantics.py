"""Desk-scale model theory: the gate interpreter, equivalence, forgetting.

One kernel, `_table`, computes gate values: each variable is read as an
integer mask and each gate as the bitwise operation on its children's
masks, so one walk evaluates the circuit on every row the masks encode.
`truth_mask` passes one mask per variable of an ordered tuple of n: bit
i of the result is the circuit's value under the i-th assignment in word
order (first variable = leftmost character = most significant bit), the
word format(i, f"0{n}b").  `evaluate` passes an assignment's 0/1 values,
a table of one row; the classifier's queries at one instance pass all
ones or zero for each feature and the labels' masks.

`truth_mask` takes no cap and enforces none: its callers in the package
cap first, `equivalent` at DEFAULT_VAR_CAP and `classifier._full_table`
and `dtree.circuit_to_dt` at their `cap`; `classifier._forced_at` caps
the label words of its instance's block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Mapping, Sequence

from .circuit import AND, NOT, OR, VAR
from .circuit import Circuit, VarId, cofactors, disjoin, iter_gates
from .errors import CapExceededError

DEFAULT_VAR_CAP = 20


@dataclass(frozen=True)
class Assignment:
    """A total assignment over an ordered tuple of variables."""

    vars: tuple[VarId, ...]
    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        bits = tuple(self.bits)
        if len(self.vars) != len(bits):
            raise ValueError("assignment needs one bit per variable")
        if any(not isinstance(b, int) or b not in (0, 1) for b in bits):
            raise ValueError(f"assignment bits must be the ints 0 or 1, got {bits!r}")
        object.__setattr__(self, "bits", tuple(int(b) for b in bits))  # bools become ints
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable in assignment")

    @classmethod
    def from_word(cls, word: str, over: Sequence[VarId]) -> "Assignment":
        over = tuple(over)
        if len(word) != len(over) or any(ch not in "01" for ch in word):
            raise ValueError(
                f"instance word must be {len(over)} characters of 0/1, got {word!r}"
            )
        return cls(over, tuple(int(ch) for ch in word))

    @classmethod
    def from_index(cls, i: int, over: Sequence[VarId]) -> "Assignment":
        over = tuple(over)
        n = len(over)
        return cls(over, tuple((i >> (n - 1 - j)) & 1 for j in range(n)))

    @property
    def word(self) -> str:
        return "".join(str(b) for b in self.bits)

    @cached_property
    def _values(self) -> dict[VarId, int]:
        return dict(zip(self.vars, self.bits))

    def value(self, var: VarId) -> int:
        return self._values[var]

    def __str__(self):
        return self.word


def ensure_cap(count: int, cap: int):
    if count > cap:
        raise CapExceededError(
            f"{count} variables exceed the enumeration cap of {cap}"
        )


def ensure_within(extra: Collection[VarId], message: str):
    """Raise ValueError unless `extra`, the variables found outside what is
    allowed (for a circuit, `Circuit.vars_outside`), is empty.

    `message` is a format string; its `{names}` field receives the
    offending variable names, sorted and comma-separated.
    """
    if extra:
        names = ", ".join(sorted(v.name for v in extra))
        raise ValueError(message.format(names=names))


def _position_mask(p: int, n: int) -> int:
    # bit i of the result is (i >> p) & 1, for all i < 2**n
    block = ((1 << (1 << p)) - 1) << (1 << p)
    width = 1 << (p + 1)
    total = 1 << n
    while width < total:
        block |= block << width
        width <<= 1
    return block


def var_masks(over: Sequence[VarId]) -> dict[VarId, int]:
    """Truth-table mask of each variable itself, under the given order."""
    over = tuple(over)
    n = len(over)
    return {v: _position_mask(n - 1 - j, n) for j, v in enumerate(over)}


def truth_mask(circ: Circuit, over: Sequence[VarId]) -> int:
    """The circuit's full truth table over the given variable order, as an int;
    only a circuit that mentions a variable outside it is walked again, to name them all."""
    over = tuple(over)
    if len(set(over)) != len(over):
        raise ValueError("duplicate variables in enumeration order")
    message = "circuit mentions variables outside the order: {names}"
    return _table(circ, var_masks(over), (1 << (1 << len(over))) - 1, message)


def evaluate(circ: Circuit, omega: Assignment) -> int:
    """Classical Boolean evaluation under a total assignment: a table of one row;
    only a circuit that mentions a variable the assignment lacks is walked again, to name them all."""
    message = "assignment is not total over the circuit's variables (missing {names})"
    return _table(circ, omega._values, 1, message)


def _table(circ: Circuit, masks: Mapping[VarId, int], full: int, message: str) -> int:
    """The gate interpreter: the root's mask, each variable read as its mask.

    Every mask is a subset of `full`, one bit per row; a constant's is 0
    or `full` by its uid.  A variable missing from `masks` makes
    `ensure_within` walk the circuit again and raise `message`, with every
    such variable named.
    """
    kinds, payloads, children = circ.pool._kinds, circ.pool._payloads, circ.pool._children
    memo = [0] * (circ.uid + 1)
    try:
        for gate in iter_gates(circ):
            kind = kinds[gate]
            if gate < 2:
                m = full if gate else 0
            elif kind == VAR:
                m = masks[payloads[gate]]
            elif kind == NOT:
                m = full ^ memo[children[gate][0]]
            elif kind == AND:
                m = full
                for child in children[gate]:
                    m &= memo[child]
            elif kind == OR:
                m = 0
                for child in children[gate]:
                    m |= memo[child]
            else:  # DEC
                sel = masks[payloads[gate]]
                low, high = children[gate]
                m = (memo[high] & sel) | (memo[low] & ~sel & full)
            memo[gate] = m
    except KeyError:
        ensure_within(circ.vars_outside(masks), message)
        raise
    return memo[circ.uid]


def _ordered(vs: Iterable[VarId]) -> tuple[VarId, ...]:
    return tuple(sorted(vs, key=lambda v: v.index))


def equivalent(a: Circuit, b: Circuit) -> bool:
    """Same models over the union of the two variable sets; one circuit needs no walk."""
    if a == b:
        return True
    over = _ordered(a.vars() | b.vars())
    ensure_cap(len(over), DEFAULT_VAR_CAP)
    return truth_mask(a, over) == truth_mask(b, over)


def forget(circ: Circuit, vs: Iterable[VarId]) -> Circuit:
    """Existential abstraction: strongest consequence independent of vs.

    Applies the one-variable rule (low cofactor or high cofactor) once per
    variable, so the result can grow by a factor of two per forgotten
    variable; callers keep vs small.
    """
    out = circ
    for v in _ordered(frozenset(vs)):
        out = disjoin(*cofactors(out, v))
    return out
