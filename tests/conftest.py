import itertools
from types import SimpleNamespace

import pytest
from hypothesis import settings, strategies as st

from monorect import Assignment, ClassificationProblem, Pool, iter_gates
from monorect.circuit import AND, CONST, NOT, OR, VAR
from monorect.dtree import DTLeaf, DTNode

settings.register_profile("desk", deadline=None)
settings.load_profile("desk")

# Decision-tree texts for the worked three-feature example (see demo fixture).
SIGMA_TREE_TEXT = "(x1 (x2 (y 0 1) (y 1 0)) (x3 (y 1 0) (y 0 1)))"
THEORY_TREE_TEXT = "(y (x1 1 (x3 0 1)) (x2 0 1))"
REDUCED_TREE_TEXT = "(x1 0 (x2 0 1))"

DEMO_SIGMA_AST = [
    "iff",
    ["or", ["and", ["not", "x1"], ["not", "x2"]], ["and", "x1", "x3"]],
    "y",
]
DEMO_THEORY_AST = [
    "and",
    ["imp", ["and", "x1", ["not", "x3"]], "y"],
    ["imp", ["not", "x2"], ["not", "y"]],
]


@pytest.fixture
def demo():
    """Three features, one label: the worked loan-style example."""
    pool = Pool()
    features = pool.declare("x1", "x2", "x3")
    labels = pool.declare("y")
    problem = ClassificationProblem(features, labels)
    return SimpleNamespace(
        pool=pool,
        problem=problem,
        sigma=pool.build(DEMO_SIGMA_AST),
        theory=pool.build(DEMO_THEORY_AST),
    )


@pytest.fixture
def twolabel():
    """Two features, two labels: the classifier ties each feature to one label."""
    pool = Pool()
    features = pool.declare("x1", "x2")
    labels = pool.declare("y1", "y2")
    problem = ClassificationProblem(features, labels)
    sigma = pool.build(
        [
            "and",
            ["dec", "x1", ["not", "y1"], ["dec", "y1", "false", "true"]],
            ["dec", "y2", ["not", "x2"], "x2"],
        ]
    )
    theory = pool.build(
        [
            "and",
            ["imp", ["and", "x1", "x2"], ["and", "y1", "y2"]],
            ["imp", ["and", "x1", ["not", "x2"]], ["or", "y1", "y2"]],
            ["imp", ["and", ["not", "x1"], "x2"], ["not", "y2"]],
            ["or", "x1", "x2"],
        ]
    )
    return SimpleNamespace(pool=pool, problem=problem, sigma=sigma, theory=theory)


def build_with_vars(names, *asts):
    """Fresh pool with the given variables; returns (pool, built asts...)."""
    pool = Pool()
    pool.declare(*names)
    return (pool, *(pool.build(a) for a in asts))


def reference_evaluate(circ, omega):
    """Gate-by-gate 0/1 evaluation, independent of the library's mask interpreter.

    Raises ValueError when the assignment misses a variable the circuit reads.
    """
    memo = [0] * (circ.root.uid + 1)
    try:
        for gate in iter_gates(circ):
            kind = gate.kind
            if kind == CONST:
                v = gate.payload
            elif kind == VAR:
                v = omega.value(gate.payload)
            elif kind == NOT:
                v = 1 - memo[gate.children[0].uid]
            elif kind == AND:
                v = min(memo[child.uid] for child in gate.children)
            elif kind == OR:
                v = max(memo[child.uid] for child in gate.children)
            else:  # DEC
                v = memo[gate.children[omega.value(gate.payload)].uid]
            memo[gate.uid] = v
    except KeyError as exc:
        raise ValueError(f"assignment misses {exc}") from None
    return memo[circ.root.uid]


def brute_equivalent(a, b, over):
    """Per-assignment equivalence via reference_evaluate, independent of the mask path."""
    over = tuple(over)
    for bits in itertools.product((0, 1), repeat=len(over)):
        omega = Assignment(over, bits)
        if reference_evaluate(a, omega) != reference_evaluate(b, omega):
            return False
    return True


def ast_exprs(names, max_leaves=10, allow_dec=True):
    """Strategy over nested-list circuit expressions using the given names."""
    names = list(names)
    leaves = st.sampled_from(names + ["true", "false"])

    def compose(children):
        options = [
            children.map(lambda e: ["not", e]),
            st.lists(children, min_size=2, max_size=3).map(lambda cs: ["and"] + cs),
            st.lists(children, min_size=2, max_size=3).map(lambda cs: ["or"] + cs),
            st.tuples(children, children).map(lambda t: ["imp", t[0], t[1]]),
            st.tuples(children, children).map(lambda t: ["iff", t[0], t[1]]),
        ]
        if allow_dec:
            options.append(
                st.tuples(st.sampled_from(names), children, children).map(
                    lambda t: ["dec", t[0], t[1], t[2]]
                )
            )
        return st.one_of(options)

    return st.recursive(leaves, compose, max_leaves=max_leaves)


def tree_specs(names, max_leaves=12):
    """Strategy over nested-tuple decision-tree shapes using the given names."""
    leaves = st.sampled_from(["0", "1"])

    def compose(children):
        return st.tuples(st.sampled_from(list(names)), children, children)

    return st.recursive(leaves, compose, max_leaves=max_leaves)


def tree_from_spec(pool, spec):
    if spec == "0":
        return DTLeaf(0)
    if spec == "1":
        return DTLeaf(1)
    name, low, high = spec
    return DTNode(pool.var(name), tree_from_spec(pool, low), tree_from_spec(pool, high))
