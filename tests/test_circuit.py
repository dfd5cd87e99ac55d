import itertools
import random
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from monorect import (
    Assignment,
    BuildError,
    Circuit,
    Literal,
    Pool,
    Term,
    cofactors,
    condition,
    conjoin,
    disjoin,
    dt_rectify,
    evaluate,
    iter_gates,
    negate,
    parse_circuit,
    parse_dtree,
    parse_tree_file,
)
from monorect.circuit import AND, CONST, DEC, OR, VAR, VarId
from monorect.dtree import _reduce
from monorect.formats import _chunks
from monorect.randgen import random_circuit, random_problem, random_tree
from monorect.semantics import forget
from monorect.verify import syntactic_rewrite

from conftest import ast_exprs, brute_equivalent, build_with_vars, gate_count, gates_of, store

NAMES = ("x1", "x2", "x3")


def kind_counts(circ):
    counts = {}
    for gate in gates_of(circ):
        counts[gate.kind] = counts.get(gate.kind, 0) + 1
    return counts


def fig1_circuit(pool):
    # conjunction of two decision gates: first feature tied to the first
    # label, second label tied to the second feature
    return pool.build(
        [
            "and",
            ["dec", "x1", ["not", "y1"], ["dec", "y1", "false", "true"]],
            ["dec", "y2", ["not", "x2"], "x2"],
        ]
    )


class TestBuild:
    def test_simple_and(self):
        pool, circ = build_with_vars(NAMES, ["and", "x1", "x2"])
        assert kind_counts(circ) == {AND: 1, VAR: 2}
        assert circ.size == 2

    def test_decision_gate_equals_expansion(self):
        pool = Pool()
        pool.declare("x", "a", "b")
        dec = pool.build(["dec", "x", "a", "b"])
        expanded = pool.build(
            ["or", ["and", ["not", "x"], "a"], ["and", "x", "b"]]
        )
        assert brute_equivalent(dec, expanded, pool.variables)

    def test_sharing_pools_identical_subterms(self):
        pool, circ = build_with_vars(NAMES, ["and", "x1", ["and", "x1", "x2"]])
        assert kind_counts(circ)[VAR] == 2  # one gate for each distinct variable
        repeat = pool.build(["and", "x1", ["and", "x1", "x2"]])
        assert repeat == circ

    def test_unknown_variable(self):
        pool = Pool()
        pool.declare("x1")
        with pytest.raises(BuildError, match="unknown identifier"):
            pool.build(["and", "x1", "x9"])

    def test_zero_arity(self):
        pool = Pool()
        pool.declare("x1")
        with pytest.raises(BuildError, match="zero-arity"):
            pool.build(["and"])

    def test_arity_one_collapses(self):
        pool, circ, var = build_with_vars(NAMES, ["and", "x1"], "x1")
        assert circ == var

    def test_let_shares_and_rejects_duplicates(self):
        pool = Pool()
        pool.declare("x1", "x2")
        circ = pool.build(
            ["let", [["p", ["or", "x1", "x2"]]], ["and", "p", ["not", "p"]]]
        )
        or_gates = [g for g in gates_of(circ) if g.kind == "or"]
        assert len(or_gates) == 1
        with pytest.raises(BuildError, match="duplicate let binding 'p': already bound"):
            pool.build(["let", [["p", "x1"], ["p", "x2"]], "p"])
        with pytest.raises(BuildError, match="duplicate let binding 'x1': a declared variable"):
            pool.build(["let", [["x1", "x2"]], "x1"])
        with pytest.raises(BuildError, match="duplicate let binding 'and': a reserved word"):
            pool.build(["let", [["and", "x2"]], "x1"])


class TestCondition:
    def test_two_label_example(self):
        pool = Pool()
        x1, x2 = pool.declare("x1", "x2")
        y1, y2 = pool.declare("y1", "y2")
        sigma = fig1_circuit(pool)
        both = condition(sigma, Term([Literal(x1), Literal(x2)]))
        assert brute_equivalent(both, pool.build(["and", "y1", "y2"]), (y1, y2))

    def test_empty_term_is_identity(self, demo):
        assert condition(demo.sigma, Term()) == demo.sigma

    def test_theory_under_positive_label(self, demo):
        label = demo.problem.label
        under_pos = condition(demo.theory, Term([Literal(label)]))
        assert brute_equivalent(
            under_pos, demo.pool.build("x2"), demo.problem.features
        )

    def test_inconsistent_term_rejected(self):
        pool = Pool()
        (x,) = pool.declare("x")
        with pytest.raises(ValueError, match="inconsistent term"):
            Term([Literal(x, True), Literal(x, False)])

    def test_terms_are_values(self):
        pool = Pool()
        x1, x2 = pool.declare("x1", "x2")
        term = Term([Literal(x2), Literal(x1, False)])
        same = Term([Literal(x1, False), Literal(x2), Literal(x2)])
        assert term == same and hash(term) == hash(same)
        assert {term, same, Term([Literal(x1)])} == {term, Term([Literal(x1)])}
        assert str(Literal(x1)) == "x1" and str(Literal(x1, False)) == "!x1"
        assert repr(term) == "Term(!x1 x2)" and repr(Term()) == "Term()"

    def test_removes_conditioned_variables(self):
        pool, circ = build_with_vars(("x1", "y"), ["and", "x1", "y"])
        x1 = pool.var("x1")
        y = pool.var("y")
        conditioned = condition(circ, Term([Literal(x1)]))
        assert conditioned.vars() == {y}


class TestNegate:
    def test_constants(self):
        pool = Pool()
        assert negate(pool.const(1)) == pool.const(0)

    def test_double_negation(self, demo):
        assert negate(negate(demo.sigma)) == demo.sigma

    def test_truth_table(self):
        pool, circ = build_with_vars(
            ("x1", "x3"), ["or", ["not", "x1"], "x3"]
        )
        negated = negate(circ)
        expected = pool.build(["and", "x1", ["not", "x3"]])
        assert brute_equivalent(negated, expected, pool.variables)


class TestConjoinDisjoin:
    def test_units(self):
        pool, b = build_with_vars(NAMES, ["or", "x1", "x2"])
        assert conjoin(pool.const(1), b) == b
        assert disjoin(pool.const(0), b) == b
        assert conjoin(pool.const(0), b) == pool.const(0)
        assert disjoin(pool.const(1), b) == pool.const(1)

    @pytest.mark.parametrize("combine, absorbing", [(conjoin, 0), (disjoin, 1)])
    def test_a_constant_on_either_side_folds_and_adds_no_gate(self, combine, absorbing):
        pool, b = build_with_vars(NAMES, ["or", "x1", "x2"])
        kill, unit = pool.const(absorbing), pool.const(1 - absorbing)
        size = gate_count(pool)
        assert combine(kill, b) == combine(b, kill) == kill
        assert combine(unit, b) == combine(b, unit) == b
        assert combine(kill, unit) == combine(unit, kill) == combine(kill, kill) == kill
        assert combine(unit, unit) == unit
        assert gate_count(pool) == size

    @pytest.mark.parametrize("combine", [conjoin, disjoin])
    def test_equal_operands_are_one_and_add_no_gate(self, combine):
        pool, b = build_with_vars(NAMES, ["or", "x1", "x2"])
        size = gate_count(pool)
        assert combine(b, b) == b
        assert gate_count(pool) == size

    @pytest.mark.parametrize("combine, make, kind", [(conjoin, Pool.and_, AND), (disjoin, Pool.or_, OR)])
    def test_two_distinct_gates_make_the_interned_gate(self, combine, make, kind):
        pool, a, b = build_with_vars(NAMES, ["or", "x1", "x2"], ["not", "x3"])
        size = gate_count(pool)
        both = combine(a, b)
        assert gate_count(pool) == size + 1
        assert both == make(pool, [a, b]) and (both.kind, both.children) == (kind, (a, b))
        assert combine(b, a) != both  # the operands keep their order
        assert gate_count(pool) == size + 2

    @pytest.mark.parametrize("combine", [conjoin, disjoin])
    def test_operands_of_two_pools_are_refused_before_any_fold(self, combine):
        pool, other = Pool(), Pool()
        for first, second in ((pool.const(0), other.const(0)), (pool.const(1), other.const(1))):
            with pytest.raises(ValueError, match="circuit belongs to a different pool"):
                combine(first, second)

    def test_contradiction(self):
        pool, x1, nx1 = build_with_vars(NAMES, "x1", ["not", "x1"])
        both = conjoin(x1, nx1)
        zero = pool.const(0)
        assert brute_equivalent(both, zero, pool.variables)

    @given(a=ast_exprs(NAMES, max_leaves=8), b=ast_exprs(NAMES, max_leaves=8))
    def test_size_bounds(self, a, b):
        pool, ca, cb = build_with_vars(NAMES, a, b)
        assert conjoin(ca, cb).size <= ca.size + cb.size + 2
        assert disjoin(ca, cb).size <= ca.size + cb.size + 2


class TestVars:
    def test_constant_has_none(self):
        pool = Pool()
        assert pool.const(1).vars() == frozenset()

    def test_two_label_classifier_mentions_all(self):
        pool = Pool()
        pool.declare("x1", "x2")
        pool.declare("y1", "y2")
        sigma = fig1_circuit(pool)
        assert {v.name for v in sigma.vars()} == {"x1", "x2", "y1", "y2"}

    def test_ids_of_two_pools_with_the_same_declarations_are_equal(self):
        first, second = Pool(), Pool()
        a = first.declare("x1", "x2")
        b = second.declare("x1", "x2")
        assert a == b
        assert [hash(v) for v in a] == [hash(v) for v in b]
        assert {a[1]: "found"}[b[1]] == "found"
        assert [str(v) for v in b] == ["x1", "x2"]
        swapped = Pool()
        assert swapped.declare("x2", "x1") != b
        assert swapped.var("x1") != b[0]


def _expand_decs(ast):
    if isinstance(ast, str):
        return ast
    if ast[0] == "dec":
        _, name, low, high = ast
        return [
            "or",
            ["and", ["not", name], _expand_decs(low)],
            ["and", name, _expand_decs(high)],
        ]
    return [ast[0]] + [_expand_decs(a) for a in ast[1:]]


@given(ast=ast_exprs(NAMES, max_leaves=12))
def test_decision_desugaring_is_sound(ast):
    pool, sugared, expanded = build_with_vars(NAMES, ast, _expand_decs(ast))
    assert brute_equivalent(sugared, expanded, pool.variables)


@given(
    ast=ast_exprs(NAMES, max_leaves=12),
    fixed=st.dictionaries(st.sampled_from(NAMES), st.booleans(), max_size=3),
)
def test_conditioning_matches_substitution_semantics(ast, fixed):
    pool, circ = build_with_vars(NAMES, ast)
    gamma = Term(Literal(pool.var(name), value) for name, value in fixed.items())
    conditioned = condition(circ, gamma)
    assert gamma.vars().isdisjoint(conditioned.vars())
    free = [v for v in pool.variables if v not in gamma.vars()]
    for bits in itertools.product((0, 1), repeat=len(free)):
        partial = dict(zip(free, bits))
        narrowed = Assignment(tuple(free), bits)
        total = Assignment(
            pool.variables,
            tuple(
                partial[v] if v in partial else int(gamma.value(v))
                for v in pool.variables
            ),
        )
        assert evaluate(conditioned, narrowed) == evaluate(circ, total)


@given(
    ast=ast_exprs(NAMES, max_leaves=12),
    fixed=st.dictionaries(st.sampled_from(NAMES), st.booleans(), max_size=3),
)
def test_conditioning_never_grows(ast, fixed):
    pool, circ = build_with_vars(NAMES, ast)
    gamma = Term(Literal(pool.var(name), value) for name, value in fixed.items())
    assert condition(circ, gamma).size <= circ.size


@given(ast=ast_exprs(NAMES, max_leaves=8))
@settings(max_examples=60)
def test_shared_and_unshared_builds_agree(ast):
    pool, inline = build_with_vars(NAMES, ["and", ast, ["not", ast]])
    shared = pool.build(["let", [["p", ast]], ["and", "p", ["not", "p"]]])
    assert shared == inline  # interning re-shares the spelled-out copy
    assert brute_equivalent(shared, inline, pool.variables)


def dfs_gates(circ):
    """A depth-first walk with a seen set, blind to uid order: the scan's reference."""
    seen = set()
    out = []
    stack = [(circ, False)]
    while stack:
        gate, ready = stack.pop()
        if ready:
            out.append(gate)
            continue
        if gate.uid in seen:
            continue
        seen.add(gate.uid)
        stack.append((gate, True))
        stack.extend((c, False) for c in gate.children)
    return out


def walked_vars(circ):
    return frozenset(g.payload for g in dfs_gates(circ) if g.kind in ("var", "dec"))


@given(
    asts=st.lists(ast_exprs(NAMES, max_leaves=10), min_size=1, max_size=4),
    name=st.sampled_from(NAMES),
)
def test_scan_matches_depth_first_walk(asts, name):
    # several circuits in one pool, so the scan has gates to skip
    pool, *circs = build_with_vars(NAMES, *asts)
    var = pool.var(name)
    low, high = cofactors(circs[0], var)
    assert low == condition(circs[0], Term([Literal(var, False)]))
    assert high == condition(circs[0], Term([Literal(var, True)]))
    circs += [low, high, disjoin(low, high), conjoin(circs[-1], low)]
    for circ in circs:
        uids = iter_gates(circ)
        assert uids == sorted(g.uid for g in dfs_gates(circ))  # ascending, each reached gate once
        gates = gates_of(circ)
        assert set(gates) == set(dfs_gates(circ))
        assert all(c.uid < g.uid for g in gates for c in g.children)
        assert all(g == Circuit(pool, g.uid) for g in gates + dfs_gates(circ))  # all of this pool
        assert circ.vars() == walked_vars(circ)
        assert Circuit(pool, circ.uid).vars() == circ.vars()  # one answer per root


def test_small_circuit_built_last_in_a_large_pool():
    pool = Pool()
    x1, x2 = pool.declare("x1", "x2")
    chain = pool.literal(x1)
    for _ in range(100_000):
        chain = pool.not_(chain)
    small = pool.and_([pool.literal(x1), pool.literal(x2)])
    assert gate_count(pool) == 100_005  # the two constants, x1, the chain, x2 and the 'and'
    assert iter_gates(small) == sorted(g.uid for g in dfs_gates(small))
    assert small.vars() == {x1, x2}

    def best(circ, runs):
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            iter_gates(circ)
            times.append(time.perf_counter() - start)
        return min(times)

    # the scan skips the 1e5 unmarked uids below the root in C: far less
    # than one visit per uid, which the walk over the whole chain makes
    assert best(small, 20) * 20 < best(chain, 3)

    def peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # conditioning memoises only its cone: past iter_gates' bytearray of one
    # byte per uid it allocates nothing sized by the root uid, and makes no gate
    conditioned, condition_peak = peak(lambda: condition(small, Term([Literal(x1)])))
    halves, cofactors_peak = peak(lambda: cofactors(small, x1))
    assert conditioned == pool.literal(x2)
    assert halves == (pool.const(0), pool.literal(x2))
    assert gate_count(pool) == 100_005
    assert condition_peak < 2 * small.uid and cofactors_peak < 2 * small.uid


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), gates=st.integers(0, 40))
@settings(max_examples=80)
def test_every_gate_mentions_a_variable_its_pool_declares(seed, n, gates):
    # the invariant behind Circuit.vars_outside, over the builders and every kernel
    rng = random.Random(seed)
    pool = Pool()
    problem = random_problem(pool, n)
    circ = random_circuit(pool, problem.all_vars, gates, rng)
    extra = pool.literal(pool.fresh())
    widened = conjoin(circ, disjoin(extra, random_circuit(pool, problem.features, gates, rng)))
    pool.fresh()  # declared after every circuit above
    label = problem.label
    outputs = [
        circ,
        widened,
        *cofactors(widened, label),
        forget(widened, [extra.payload, rng.choice(problem.features)]),
        syntactic_rewrite(widened, rng, pool),
        random_tree(pool, problem.all_vars, rng),
    ]
    declared = set(pool.variables)
    for out in outputs:
        for gate in gates_of(out):
            if gate.kind == VAR or gate.kind == DEC:
                assert gate.payload in declared
        assert out.vars() <= declared
        assert out.vars_outside(pool.variables) == frozenset()
        assert out.vars_outside(problem.all_vars) == out.vars() - set(problem.all_vars)


def _two_pools():
    pool, other = Pool(), Pool()
    pool.declare(*NAMES)
    other.declare("x1", "z")
    return pool, other


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda pool, other: pool.declare("and"), BuildError, "variable name 'and' is a reserved word"),
        (lambda pool, other: pool.not_(other.literal(other.var("z"))), ValueError,
         "circuit belongs to a different pool"),
        (lambda pool, other: pool.literal(other.var("z")), BuildError,
         "variable 'z' is not declared in this pool"),
        (lambda pool, other: pool.const(2), BuildError, "constant must be 0 or 1, got 2"),
        (lambda pool, other: pool.and_([]), BuildError, "zero-arity 'and' gate"),
        (lambda pool, other: pool.build(["and", "x1", 3]), BuildError, "malformed expression 3"),
        (lambda pool, other: condition(pool.build("x1"), "x1"), TypeError,
         "condition expects a Term"),
    ],
    ids=["reserved-name", "foreign-circuit", "foreign-variable", "constant-2", "empty-and",
         "int-leaf", "string-assumption"],
)
def test_rejected_builds(make, error, message):
    with pytest.raises(error) as raised:
        make(*_two_pools())
    assert str(raised.value) == message


def test_a_bool_leaf_builds_a_constant():
    pool, _ = _two_pools()
    expected = pool.and_([pool.build("x1"), pool.const(1)])
    assert pool.build(["and", "x1", True]) == expected


# ----------------------------------------------------------------------
# One unique table per gate kind: the readers, the constructors and the
# kernels find the same gate for the same kind, payload and children.


def _read_tree_second(pool):
    """The second of two trees read by one `Pool.read_tree` call, so its leaves are met already."""
    chunks, split = _chunks("(x3 0 1) (x1 0 1))")  # the last ')' closes the top level
    return pool.read_tree(iter(chunks[1:]), split(chunks[0]), split)[0][1]


# kind: (texts of the circuits made first, the reads that make the gate, the
# constructors and kernels that make it; each takes the pool and those circuits)
_SAME_GATE = {
    "const": (
        ["false", "x1"],
        [lambda p, c: parse_circuit("true", p), lambda p, c: parse_dtree("1", p)],
        [lambda p, c: p.const(1), lambda p, c: p.const(True), lambda p, c: negate(c[0]),
         lambda p, c: cofactors(c[1], p.var("x1"))[1]],
    ),
    "var": (
        ["false", "true"],
        [lambda p, c: parse_circuit("x1", p)],
        [lambda p, c: p.literal(p.var("x1"))],
    ),
    "not": (
        ["false", "true", "(not (and x1 x2))"],
        [lambda p, c: parse_circuit("(not x1)", p)],
        [lambda p, c: p.not_(p.literal(p.var("x1"))), lambda p, c: p.literal(p.var("x1"), False),
         lambda p, c: negate(p.literal(p.var("x1"))), lambda p, c: cofactors(c[2], p.var("x2"))[1]],
    ),
    "and": (
        ["false", "true", "(and x1 x2 x3)"],
        [lambda p, c: parse_circuit("(and x1 x2)", p)],
        [lambda p, c: p.and_([p.literal(p.var("x1")), p.literal(p.var("x2"))]),
         lambda p, c: conjoin(p.literal(p.var("x1")), p.literal(p.var("x2"))),
         lambda p, c: cofactors(c[2], p.var("x3"))[1]],
    ),
    "or": (
        ["false", "true", "(or x1 x2 x3)"],
        [lambda p, c: parse_circuit("(or x1 x2)", p)],
        [lambda p, c: p.or_([p.literal(p.var("x1")), p.literal(p.var("x2"))]),
         lambda p, c: disjoin(p.literal(p.var("x1")), p.literal(p.var("x2"))),
         lambda p, c: cofactors(c[2], p.var("x3"))[0]],
    ),
    "dec": (
        # x3's low cofactor, the first tree `_read_tree_second` reads, the tree `_reduce` reduces
        ["false", "true", "(dec x1 false x3)", "(dec x1 false false)", "(dec x3 false true)",
         "(dec x1 (dec x2 false false) true)"],
        [lambda p, c: parse_circuit("(dec x1 false true)", p), lambda p, c: parse_dtree("(x1 0 1)", p),
         lambda p, c: Circuit(p, _read_tree_second(p))],
        [lambda p, c: p.decision(p.var("x1"), c[0], c[1]),
         lambda p, c: cofactors(c[2], p.var("x3"))[1],
         lambda p, c: _reduce(c[5], {})],
    ),
}


@pytest.mark.parametrize(
    "kind, read, make",
    [
        (kind, read, make)
        for kind, (_, reads, makes) in _SAME_GATE.items()
        for read in range(len(reads))
        for make in range(len(makes))
    ],
)
@pytest.mark.parametrize("read_first", [True, False], ids=["read-first", "read-second"])
def test_readers_constructors_and_kernels_share_one_table(kind, read, make, read_first):
    texts, reads, makes = _SAME_GATE[kind]
    pool = Pool()
    pool.declare(*NAMES)
    made = [parse_circuit(text, pool) for text in texts]
    before = gate_count(pool)
    steps = [reads[read], makes[make]]
    if not read_first:
        steps.reverse()
    added = 0 if kind == "const" else 1  # a pool starts with both constants
    first = steps[0](pool, made)
    assert (first.kind, gate_count(pool)) == (kind, before + added)
    assert steps[1](pool, made) == first
    assert gate_count(pool) == before + added


def test_true_and_one_are_one_constant():
    pool = Pool()
    assert pool.const(True) == pool.const(1)
    assert pool.const(False) == pool.const(0)
    assert gate_count(pool) == 2


_CONSTANTS = [(CONST, 0, ()), (CONST, 1, ())]


def test_a_pool_starts_with_its_two_constants():
    assert store(Pool()) == _CONSTANTS


def test_readers_and_kernels_add_no_constant():
    pool = Pool()
    (x,) = pool.declare("x")
    tree = parse_dtree("(x 0 1)", pool)
    assert cofactors(tree, x) == (pool.const(0), pool.const(1))
    assert cofactors(pool.literal(x), x) == (pool.const(0), pool.const(1))
    assert negate(pool.const(1)) == pool.const(0)
    problems = Path(__file__).resolve().parent.parent / "problems"
    sigma, theory = (parse_tree_file((problems / name).read_text())
                     for name in ("demo_sigma.tree", "demo_theory.tree"))
    dt_rectify(sigma.tree, theory.tree, sigma.problem)
    for p in (pool, sigma.pool, theory.pool):
        assert [gate for gate in store(p) if gate[0] == CONST] == _CONSTANTS


def test_an_undeclared_variable_has_no_unique_table():
    # `declare` makes a variable's tables, so no gate can mention one the pool lacks
    pool = Pool()
    pool.declare("x1")
    for kind, var, kids in [(VAR, VarId(1, "x2"), ()), (DEC, VarId(1, "x2"), (0, 1)),
                            (VAR, VarId(0, "x2"), ())]:
        with pytest.raises(KeyError):
            pool._gate(kind, var, kids)
    assert gate_count(pool) == 2


def test_kind_payload_and_children_read_the_store():
    pool = Pool()
    x1, x2 = pool.declare("x1", "x2")
    circ = pool.and_([pool.literal(x1), pool.literal(x2, False)])
    assert circ == Circuit(pool, gate_count(pool) - 1)
    assert (circ.kind, circ.payload, circ.uid) == ("and", None, 5)  # after the constants 0 and 1
    assert [child.uid for child in circ.children] == [2, 4]
    assert circ.children[1].children[0] == pool.literal(x2) == Circuit(pool, 3)
    assert (circ.children[0].kind, circ.children[0].payload, circ.children[0].children) == ("var", x1, ())
    assert all(child.pool is pool for child in circ.children)
    # a circuit hashes by its pool and uid, so neither can be reassigned
    held = {circ}
    for field in ("kind", "payload", "children", "pool", "uid"):
        with pytest.raises(AttributeError):
            setattr(circ, field, 7)
    assert circ in held and (circ.pool, circ.uid, circ.kind) == (pool, 5, "and")
