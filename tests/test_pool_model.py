"""A rule machine over one long-lived pool: every constructor, reader and kernel
interleaved, with the store's invariants checked after every step.

The invariants are those the kernels rely on: the three store lists have
one length, a gate's children are older than it, uids 0 and 1 are false
and true, every other gate is interned in its kind's and payload's unique
table under its own children and no two uids share a key, every kept
circuit keeps the truth table it had when made, and printing a circuit
and reading the text back gives the same uid.
"""

import random

from hypothesis import settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, multiple, rule

from monorect import (
    ClassificationProblem,
    Literal,
    Pool,
    Term,
    attach_label,
    cofactors,
    condition,
    conjoin,
    disjoin,
    dt_rectify,
    negate,
    parse_circuit,
    parse_dtree,
    print_circuit,
    print_dtree,
    rectify,
    truth_mask,
)
from monorect.circuit import CONST, DEC
from monorect.randgen import random_classifier, random_theory, random_tree

from conftest import ast_exprs, shared_exprs, tree_from_spec, tree_specs

MAX_VARS = 8  # so every kept circuit has a truth table of at most 256 rows


def _text(expr) -> str:
    """The circuit or tree text of a nested-list (or nested-tuple) expression."""
    if isinstance(expr, (list, tuple)):
        return "(" + " ".join(map(_text, expr)) + ")"
    return expr


def _is_tree(circ) -> bool:
    kinds = circ.pool._kinds
    return all(kinds[g.uid] in (CONST, DEC) for g in _reached(circ))


def _reached(circ):
    seen, todo = {circ}, [circ]
    while todo:
        for child in todo.pop().children:
            if child not in seen:
                seen.add(child)
                todo.append(child)
    return seen


class PoolModel(RuleBasedStateMachine):
    circuits = Bundle("circuits")

    def __init__(self):
        super().__init__()
        self.pool = Pool()
        self.label = self.pool.declare("y")[0]
        self.pool.declare("x1")
        self.kept = {}  # uid -> (circuit, its variables in pool order, its truth table over them)
        self.checked = 0  # the gates below this uid passed the store checks
        self.keys = {}  # (kind, payload, children) -> uid, for every checked gate

    @property
    def problem(self) -> ClassificationProblem:
        features = tuple(v for v in self.pool.variables if v != self.label)
        return ClassificationProblem(features, (self.label,))

    def keep(self, circ):
        if circ.uid not in self.kept:
            over = tuple(sorted(circ.vars(), key=lambda v: v.index))
            self.kept[circ.uid] = (circ, over, truth_mask(circ, over))
        return circ

    # ------------------------------------------------------------------
    # variables and readers

    @rule()
    def declare(self):
        if len(self.pool.variables) < MAX_VARS:
            self.pool.declare(f"x{len(self.pool.variables)}")

    @rule(target=circuits, data=st.data())
    def read_circuit(self, data):
        names = [v.name for v in self.pool.variables]
        expr = data.draw(st.one_of(ast_exprs(names, max_leaves=8), shared_exprs(names, depth=3)))
        return self.keep(parse_circuit(_text(expr), self.pool))

    @rule(target=circuits, data=st.data())
    def read_tree(self, data):
        spec = data.draw(tree_specs([v.name for v in self.pool.variables], max_leaves=8))
        tree = parse_dtree(_text(spec), self.pool)
        assert tree == tree_from_spec(self.pool, spec)
        return self.keep(tree)

    # ------------------------------------------------------------------
    # constructors

    @rule(target=circuits, value=st.integers(0, 1))
    def const(self, value):
        return self.keep(self.pool.const(value))

    @rule(target=circuits, data=st.data(), positive=st.booleans())
    def literal(self, data, positive):
        var = data.draw(st.sampled_from(self.pool.variables))
        return self.keep(self.pool.literal(var, positive))

    @rule(target=circuits, c=circuits)
    def not_(self, c):
        return self.keep(self.pool.not_(c))

    @rule(target=circuits, parts=st.lists(circuits, min_size=1, max_size=3), conjunction=st.booleans())
    def nary(self, parts, conjunction):
        return self.keep(self.pool.and_(parts) if conjunction else self.pool.or_(parts))

    @rule(target=circuits, data=st.data(), low=circuits, high=circuits)
    def decision(self, data, low, high):
        var = data.draw(st.sampled_from(self.pool.variables))
        return self.keep(self.pool.decision(var, low, high))

    # ------------------------------------------------------------------
    # kernels

    @rule(target=circuits, c=circuits, data=st.data())
    def conditioned(self, c, data):
        fixed = data.draw(st.dictionaries(st.sampled_from(self.pool.variables), st.booleans(), max_size=2))
        return self.keep(condition(c, Term(Literal(v, bit) for v, bit in fixed.items())))

    @rule(target=circuits, c=circuits, data=st.data())
    def cofactored(self, c, data):
        var = data.draw(st.sampled_from(self.pool.variables))
        return multiple(*map(self.keep, cofactors(c, var)))

    @rule(target=circuits, c=circuits)
    def negated(self, c):
        return self.keep(negate(c))

    @rule(target=circuits, a=circuits, b=circuits, conjunction=st.booleans())
    def combined(self, a, b, conjunction):
        return self.keep(conjoin(a, b) if conjunction else disjoin(a, b))

    @rule(target=circuits, seed=st.integers(0, 2**32 - 1), gates=st.integers(1, 12))
    def rectified(self, seed, gates):
        rng = random.Random(seed)
        clf = random_classifier(self.pool, self.problem, gates, rng)
        result = rectify(clf, random_theory(self.pool, self.problem, gates, rng))
        return multiple(*map(self.keep, (clf.circuit, result.positive, result.rectified.circuit)))

    @rule(target=circuits, seed=st.integers(0, 2**32 - 1))
    def tree_rectified(self, seed):
        rng = random.Random(seed)
        problem = self.problem
        sigma = attach_label(random_tree(self.pool, problem.features, rng, depth=4), self.label)
        theory = random_tree(self.pool, problem.all_vars, rng, depth=4)
        return multiple(*map(self.keep, (sigma, theory, dt_rectify(sigma, theory, problem))))

    @rule(c=circuits)
    def print_and_read(self, c):
        assert parse_circuit(print_circuit(c), self.pool) == c
        if _is_tree(c):
            assert parse_dtree(print_dtree(c), self.pool) == c

    # ------------------------------------------------------------------
    # invariants

    @invariant()
    def store_lists_have_one_length(self):
        pool = self.pool
        assert len(pool._kinds) == len(pool._payloads) == len(pool._children)

    @invariant()
    def constants_are_uids_0_and_1(self):
        pool = self.pool
        assert [(pool._kinds[u], pool._payloads[u], pool._children[u]) for u in (0, 1)] == [
            (CONST, 0, ()), (CONST, 1, ()),
        ]
        assert (pool.const(0).uid, pool.const(1).uid) == (0, 1)
        assert CONST not in pool._tables

    @invariant()
    def every_gate_is_interned_once_above_its_children(self):
        pool = self.pool
        for uid in range(max(self.checked, 2), len(pool._kinds)):
            kind, payload, kids = pool._kinds[uid], pool._payloads[uid], pool._children[uid]
            assert all(child < uid for child in kids)
            assert pool._tables[kind][payload][kids] == uid
            assert self.keys.setdefault((kind, payload, kids), uid) == uid
        self.checked = len(pool._kinds)

    @invariant()
    def kept_circuits_keep_their_truth_tables(self):
        for circ, over, table in self.kept.values():
            assert truth_mask(circ, over) == table

    @invariant()
    def printing_and_reading_gives_the_same_uid(self):
        size = len(self.pool._kinds)
        for circ, _, _ in self.kept.values():
            assert parse_circuit(print_circuit(circ), self.pool) == circ
        assert len(self.pool._kinds) == size


TestPoolModel = PoolModel.TestCase
TestPoolModel.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)
