import itertools
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import settings, strategies as st

from monorect import (
    Assignment,
    BuildError,
    ClassificationProblem,
    Classifier,
    Literal,
    Pool,
    Term,
    check_xy_property,
    conjoin,
    disjoin,
    iter_gates,
    label_blocks,
    negate,
)
from monorect.circuit import _KEYWORDS, AND, CONST, DEC, NOT, OR, VAR, Circuit
from monorect.dtree import _graft, circuit_to_dt
from monorect.randgen import random_circuit, random_classifier, random_problem, random_theory

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


def to_term(omega):
    """The canonical term of an assignment: one literal per variable."""
    return Term(Literal(v, bool(b)) for v, b in zip(omega.vars, omega.bits))


def oracle_args(clf, theory):
    """The reference oracles' arguments: sigma's and the theory's blocks, and the problem."""
    return label_blocks(clf.circuit, clf.problem), label_blocks(theory, clf.problem), clf.problem


def gates_of(circ):
    """The circuit's reachable gates, each as a `Circuit`, in `iter_gates` order."""
    return [Circuit(circ.pool, uid) for uid in iter_gates(circ)]


def gate_count(pool):
    """The number of gates in the pool's store."""
    return len(pool._kinds)


def pool_gates(pool):
    """Every gate of the pool, each as a `Circuit`, in uid order."""
    return [Circuit(pool, uid) for uid in range(gate_count(pool))]


def store(pool):
    """Every gate of the pool, in uid order: kind, payload and child uids."""
    return [(g.kind, g.payload, tuple(c.uid for c in g.children)) for g in pool_gates(pool)]


def reference_evaluate(circ, omega):
    """Gate-by-gate 0/1 evaluation, independent of the library's mask interpreter.

    Raises ValueError when the assignment misses a variable the circuit reads.
    """
    memo = [0] * (circ.uid + 1)
    try:
        for gate in gates_of(circ):
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
    return memo[circ.uid]


_COMMENT = re.compile(r";[^\n]*")
_OPEN_BLANKS = re.compile(r"\( +")


def reference_tokens(text: str) -> list[str]:
    """The earlier `formats._tokens`: blanks turned into spaces, then one split on spaces."""
    if ";" in text:
        text = _COMMENT.sub("", text)
    text = text.replace("\t", " ").replace("\r", " ").replace("\n", " ")
    if "( " in text:
        text = _OPEN_BLANKS.sub("(", text)
    return list(filter(None, text.replace("(", " (").replace(")", " ) ").split(" ")))


def reference_build(pool, expr):
    """Build a nested-list expression by recursive descent, with an explicit stack.

    The library's earlier builder, kept as the oracle of `Pool.build` and
    the circuit reader: each form is checked before its operands are
    built (arity first), then operands are built left to right through
    the pool's public constructors, so gates are interned in the order of
    a recursive descent.  Let bindings see earlier ones.
    """
    done = []
    todo = [("eval", expr, {})]
    while todo:
        step = todo.pop()
        if step[0] == "eval":
            _reference_expand(pool, step[1], step[2], todo, done)
        elif step[0] == "bind":
            _, name, bindings, i, inner, body = step
            inner[name] = done.pop()
            _reference_let(pool, bindings, i, inner, body, todo, done)
        else:
            _reference_finish(pool, step, done)
    return done[0]


def _reference_leaf(pool, expr, env):
    if isinstance(expr, bool):
        return pool.const(int(expr))
    if expr == "true":
        return pool.const(1)
    if expr == "false":
        return pool.const(0)
    bound = env.get(expr)
    return bound if bound is not None else pool.literal(pool.var(expr))


def _reference_arity(expr, n):
    if len(expr) != n + 1:
        raise BuildError(f"{expr[0]!r} expects {n} argument(s), got {len(expr) - 1}")


def _reference_expand(pool, expr, env, todo, done):
    if isinstance(expr, (str, bool)):
        done.append(_reference_leaf(pool, expr, env))
        return
    if not (isinstance(expr, (list, tuple)) and expr and isinstance(expr[0], str)):
        raise BuildError(f"malformed expression {expr!r}")
    head = expr[0]
    if head == "not":
        _reference_arity(expr, 1)
        finish = ("not",)
    elif head in ("and", "or"):
        if len(expr) < 2:
            raise BuildError(f"zero-arity {head!r} gate")
        finish = ("nary", head, len(expr) - 1)
    elif head in ("imp", "iff"):
        _reference_arity(expr, 2)
        finish = (head,)
    elif head == "dec":
        _reference_arity(expr, 3)
        name = expr[1]
        if not isinstance(name, str) or name in env:
            raise BuildError("decision gate needs a declared variable")
        finish = ("dec", pool.var(name))
    elif head == "let":
        _reference_arity(expr, 2)
        bindings = expr[1]
        if not isinstance(bindings, (list, tuple)):
            raise BuildError("let bindings must be a list of (name expr) pairs")
        _reference_let(pool, bindings, 0, dict(env), expr[2], todo, done)
        return
    else:
        raise BuildError(f"unknown operator {head!r}")
    todo.append(finish)
    first = 2 if head == "dec" else 1
    todo.extend(("eval", e, env) for e in reversed(expr[first:]))


def _reference_let(pool, bindings, i, inner, body, todo, done):
    # A binding is bound once its expression is built: the rest of the
    # let waits, as a "bind" step, under the steps that build it.
    declared = {var.name for var in pool.variables}
    if i < len(bindings):
        pair = bindings[i]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not isinstance(pair[0], str):
            raise BuildError("let bindings must be a list of (name expr) pairs")
        name, sub = pair
        if name in inner or name in declared or name in _KEYWORDS:
            why = ("a declared variable" if name in declared
                   else "a reserved word" if name in _KEYWORDS else "already bound")
            raise BuildError(f"duplicate let binding {name!r}: {why}")
        todo.append(("bind", name, bindings, i + 1, inner, body))
        todo.append(("eval", sub, inner))
        return
    todo.append(("eval", body, inner))


def _reference_finish(pool, step, done):
    op = step[0]
    if op == "not":
        done.append(pool.not_(done.pop()))
    elif op == "nary":
        count = step[2]
        parts = done[-count:]
        del done[-count:]
        done.append(pool.and_(parts) if step[1] == "and" else pool.or_(parts))
    elif op == "dec":
        high = done.pop()
        done.append(pool.decision(step[1], done.pop(), high))
    else:
        b = done.pop()
        a = done.pop()
        if op == "imp":
            done.append(pool.or_([pool.not_(a), b]))
        else:  # iff
            done.append(pool.or_([pool.and_([a, b]), pool.and_([pool.not_(a), pool.not_(b)])]))


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


LET_NAMES = ("p", "q", "r")


@st.composite
def shared_exprs(draw, names, depth=4):
    """Nested-list circuit expressions with decision gates and nested lets.

    Every name is in scope: a declared one, a constant, or a let name
    bound around it; a let name is reused once its let has closed.
    """
    names = list(names)

    def expr(env, depth):
        if depth == 0 or draw(st.integers(0, 2)) == 0:
            return draw(st.sampled_from(names + env + ["true", "false"]))
        head = draw(st.sampled_from(["not", "and", "or", "imp", "iff", "dec", "let"]))
        if head == "not":
            return ["not", expr(env, depth - 1)]
        if head in ("and", "or"):
            return [head] + [expr(env, depth - 1) for _ in range(draw(st.integers(1, 3)))]
        if head in ("imp", "iff"):
            return [head, expr(env, depth - 1), expr(env, depth - 1)]
        if head == "dec":
            return ["dec", draw(st.sampled_from(names)), expr(env, depth - 1), expr(env, depth - 1)]
        free = draw(st.permutations([name for name in LET_NAMES if name not in env]))
        bindings = []
        inner = list(env)
        for name in free[: draw(st.integers(0, len(free)))]:
            bindings.append([name, expr(inner, depth - 1)])
            inner = inner + [name]
        return ["let", bindings, expr(inner, depth - 1)]

    return expr([], depth)


def tree_specs(names, max_leaves=12):
    """Strategy over nested-tuple decision-tree shapes using the given names."""
    leaves = st.sampled_from(["0", "1"])

    def compose(children):
        return st.tuples(st.sampled_from(list(names)), children, children)

    return st.recursive(leaves, compose, max_leaves=max_leaves)


def tree_from_spec(pool, spec):
    """The decision tree of a nested-tuple shape, built in the pool."""
    if spec in ("0", "1"):
        return pool.const(int(spec))
    name, low, high = spec
    return pool.decision(pool.var(name), tree_from_spec(pool, low), tree_from_spec(pool, high))


def reference_tree_vars(tree):
    """Every variable a decision tree mentions, reached or not, by a walk over all its nodes."""
    found = set()
    todo = [tree]
    while todo:
        gate = todo.pop()
        if gate.kind == DEC:
            found.add(gate.payload)
            todo += gate.children
    return frozenset(found)


def var_walks(monkeypatch) -> list:
    """Every circuit whose variables are listed by a walk (`Circuit.vars`) from now on."""
    walked = []
    real = Circuit.vars

    def spy(circ):
        walked.append(circ)
        return real(circ)

    monkeypatch.setattr(Circuit, "vars", spy)
    return walked


def node_count(tree):
    """All nodes of a decision tree with every path spelled out, leaves included."""
    count = {}
    for gate in gates_of(tree):
        count[gate.uid] = 1 + sum(count[child.uid] for child in gate.children)
    return count[tree.uid]


def decision_count(tree):
    """Internal (variable) nodes only."""
    # every decision node has two children, so leaves outnumber them by one
    return (node_count(tree) - 1) // 2


def graft(tree, on0, on1):
    """Every 0-leaf of the tree becomes `on0`, every 1-leaf `on1`, unreduced."""
    return _graft(tree, lambda c: (on1 if c else on0).uid)


def dt_negate(tree):
    """Negation: every leaf swaps its value."""
    return graft(tree, tree.pool.const(1), tree.pool.const(0))


def dt_conjoin(a, b):
    """Conjunction: every 1-leaf of the first tree becomes the second."""
    return graft(a, a.pool.const(0), b)


def dt_disjoin(a, b):
    """Disjunction: every 0-leaf of the first tree becomes the second."""
    return graft(a, b, a.pool.const(1))


def is_read_once(tree):
    """No variable twice on any root-to-leaf path."""
    path: set = set()
    todo: list = [tree]
    while todo:
        gate = todo.pop()
        if gate is None:
            path.remove(todo.pop().payload)
        elif gate.kind == DEC:
            if gate.payload in path:
                return False
            path.add(gate.payload)
            todo.extend((gate, None, *reversed(gate.children)))
    return True


def has_identical_children(tree):
    """Some node has one gate as both children."""
    return any(gate.kind == DEC and gate.children[0] == gate.children[1] for gate in gates_of(tree))


def is_simplified(tree):
    """Read-once on every path and no node with two identical children."""
    return is_read_once(tree) and not has_identical_children(tree)


@st.composite
def desk_pairs(draw):
    """A random desk problem, its classifier and a theory.

    Half the classifiers are a decision gate on the label (built certified);
    the others an `iff` of a region and the label, certified by truth table.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pool = Pool()
    problem = random_problem(pool, draw(st.integers(1, 5)))
    gates = draw(st.integers(1, 30))
    if draw(st.booleans()):
        clf = random_classifier(pool, problem, gates, rng)
    else:
        region = random_circuit(pool, problem.features, gates, rng)
        y = pool.literal(problem.label)
        clf = Classifier(problem, disjoin(conjoin(region, y), conjoin(negate(region), negate(y))))
        assert check_xy_property(clf.circuit, clf.problem)
    return pool, problem, clf, random_theory(pool, problem, gates, rng)


def reference_simplify(pf, result):
    """The circuits `rectify --simplify` prints, by two expansions.

    The command's earlier path: the accepted region expanded over the
    features and the rectified classifier over features and label, each
    built in the problem's pool, accepted region first.
    """
    accepted = circuit_to_dt(result.positive, pf.problem.features)
    return accepted, circuit_to_dt(result.rectified.circuit, pf.problem.all_vars)
