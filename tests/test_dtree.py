import itertools
import random

import pytest
from hypothesis import given, strategies as st

from monorect import (
    Assignment,
    BuildError,
    CapExceededError,
    CertificationError,
    ClassificationProblem,
    Classifier,
    Literal,
    Pool,
    RandomForest,
    Term,
    attach_label,
    circuit_to_dt,
    condition,
    dt_check_classification,
    dt_rectify,
    dt_simplify,
    equivalent,
    evaluate,
    is_fact_compliant,
    label_blocks,
    oracle_rectify,
    parse_dtree,
    print_dtree,
    rectify,
    rf_classify,
    rf_rectify,
)
from monorect.circuit import CONST, DEC
from monorect.dtree import _reduce
from monorect.formats import parse_tree_file
from monorect.randgen import random_problem, random_tree

from conftest import (
    ast_exprs,
    decision_count,
    DEMO_SIGMA_AST,
    DEMO_THEORY_AST,
    dt_conjoin,
    dt_disjoin,
    dt_negate,
    gate_count,
    gates_of,
    graft,
    has_identical_children,
    is_read_once,
    is_simplified,
    node_count,
    reference_evaluate,
    reference_tree_vars,
    var_walks,
    REDUCED_TREE_TEXT,
    SIGMA_TREE_TEXT,
    THEORY_TREE_TEXT,
    tree_from_spec,
    tree_specs,
)

NAMES = ("x1", "x2", "x3")

# Intermediate trees of the worked example, by pipeline stage.
FORCES_NEG_TEXT = "(x1 (x2 1 0) (x3 0 (x2 1 0)))"
FORCES_POS_TEXT = "(x2 0 (x1 0 (x3 1 0)))"
KEPT_RAW_TEXT = (
    "(x1 (x2 (x1 (x2 0 1) (x3 1 (x2 0 1))) 0)"
    " (x3 0 (x1 (x2 0 1) (x3 1 (x2 0 1)))))"
)
KEPT_REDUCED_TEXT = "(x1 0 (x3 0 (x2 0 1)))"
ACCEPTED_RAW_TEXT = (
    "(x1 (x2 0 (x1 0 (x3 1 0)))"
    " (x3 (x2 0 (x1 0 (x3 1 0))) (x2 (x2 0 (x1 0 (x3 1 0))) 1)))"
)


@pytest.fixture
def trees():
    pool = Pool()
    features = pool.declare(*NAMES)
    labels = pool.declare("y")
    problem = ClassificationProblem(features, labels)
    parse = lambda text: parse_dtree(text, pool)
    return pool, problem, parse


def _fix(tree, lit):
    """The tree with every node over the literal's variable replaced by the branch it selects."""
    return condition(tree, Term([lit]))


def test_condition_on_label_selects_subtree(trees):
    pool, problem, parse = trees
    theory = parse(THEORY_TREE_TEXT)
    label = problem.label
    assert _fix(theory, Literal(label, True)) == parse("(x2 0 1)")
    assert _fix(theory, Literal(label, False)) == parse("(x1 1 (x3 0 1))")


def test_condition_on_leaf_is_identity(trees):
    pool, problem, parse = trees
    assert _fix(pool.const(1), Literal(problem.label)) == pool.const(1)


def test_conditioned_classifier_tree_matches_accepted_region(trees):
    pool, problem, parse = trees
    sigma_tree = parse(SIGMA_TREE_TEXT)
    region_tree = _fix(sigma_tree, Literal(problem.label, True))
    expected = pool.build(
        ["or", ["and", ["not", "x1"], ["not", "x2"]], ["and", "x1", "x3"]]
    )
    assert equivalent(region_tree, expected)


def test_negate_swaps_leaves(trees):
    pool, problem, parse = trees
    assert dt_negate(pool.const(1)) == pool.const(0)
    theory = parse(THEORY_TREE_TEXT)
    assert dt_negate(dt_negate(theory)) == theory
    negated_pos = dt_negate(_fix(theory, Literal(problem.label, True)))
    assert equivalent(negated_pos, pool.build(["not", "x2"]))


def test_combinations_reproduce_the_worked_pipeline(trees):
    pool, problem, parse = trees
    label = problem.label
    sigma_x = _fix(parse(SIGMA_TREE_TEXT), Literal(label, True))
    theory = parse(THEORY_TREE_TEXT)
    th_pos = _fix(theory, Literal(label, True))
    th_neg = _fix(theory, Literal(label, False))

    forces_neg = dt_conjoin(th_neg, dt_negate(th_pos))
    assert forces_neg == parse(FORCES_NEG_TEXT)
    forces_pos = dt_conjoin(th_pos, dt_negate(th_neg))
    assert forces_pos == parse(FORCES_POS_TEXT)

    kept_raw = dt_conjoin(sigma_x, dt_negate(forces_neg))
    assert kept_raw == parse(KEPT_RAW_TEXT)
    kept = dt_simplify(kept_raw)
    assert kept == parse(KEPT_REDUCED_TEXT)
    assert decision_count(kept) == 3

    accepted_raw = dt_disjoin(kept, forces_pos)
    assert accepted_raw == parse(ACCEPTED_RAW_TEXT)
    assert dt_simplify(accepted_raw) == parse(REDUCED_TREE_TEXT)


def test_conjoin_with_true_leaf_is_identity(trees):
    pool, problem, parse = trees
    theory = parse(THEORY_TREE_TEXT)
    assert dt_conjoin(theory, pool.const(1)) == theory
    assert dt_disjoin(theory, pool.const(0)) == theory


def test_simplify_merges_identical_children(trees):
    pool, problem, parse = trees
    x1 = pool.var("x1")
    assert dt_simplify(pool.decision(x1, pool.const(0), pool.const(0))) == pool.const(0)


def test_rectify_pipeline_end_to_end(trees):
    pool, problem, parse = trees
    out = dt_rectify(parse(SIGMA_TREE_TEXT), parse(THEORY_TREE_TEXT), problem)
    region = _fix(out, Literal(problem.label, True))
    assert region == parse(REDUCED_TREE_TEXT)
    clf = Classifier(problem, pool.build(DEMO_SIGMA_AST))
    result = rectify(clf, pool.build(DEMO_THEORY_AST))
    assert equivalent(out, result.rectified.circuit)


def test_rectify_by_constant_theories_changes_nothing(trees):
    pool, problem, parse = trees
    sigma_tree = parse(SIGMA_TREE_TEXT)
    for leaf in (pool.const(1), pool.const(0)):
        out = dt_rectify(sigma_tree, leaf, problem)
        assert equivalent(out, sigma_tree)


def test_rectify_rejects_uncertified_trees(trees):
    pool, problem, parse = trees
    not_a_classifier = parse("(x1 0 1)")  # never touches the label
    with pytest.raises(CertificationError):
        dt_rectify(not_a_classifier, pool.const(1), problem)


def test_rectify_rejects_variables_outside_the_problem(trees):
    pool, problem, parse = trees
    pool.declare("z1", "z2")
    sigma_tree, theory_tree = parse(SIGMA_TREE_TEXT), parse(THEORY_TREE_TEXT)
    # the classifier tree's variables are left to certification
    outside = parse("(x1 (y 0 1) (z1 (y 0 1) (y 1 0)))")
    with pytest.raises(ValueError, match="^tree mentions variables outside the problem: z1$"):
        dt_rectify(outside, theory_tree, problem)
    outside = parse("(z2 (y 0 1) (x2 1 (z1 0 1)))")
    with pytest.raises(
        ValueError, match="^theory tree mentions variables outside the problem: z1, z2$"
    ):
        dt_rectify(sigma_tree, outside, problem)


def test_tree_certification(trees):
    pool, problem, parse = trees
    assert dt_check_classification(parse(SIGMA_TREE_TEXT), problem)
    assert not dt_check_classification(parse("(x1 0 1)"), problem)
    assert not dt_check_classification(pool.const(1), problem)


def test_tree_certification_builds_only_the_accepted_region(trees):
    pool, problem, parse = trees
    sigma = parse(SIGMA_TREE_TEXT)
    accepted = _reduce(sigma, {problem.label: 1})
    built = gate_count(pool)
    # the label-0 cofactor is walked, not built, and nothing else is
    assert dt_check_classification(sigma, problem)
    assert gate_count(pool) == built
    assert print_dtree(accepted) == "(x1 (x2 1 0) (x3 0 1))"


def test_tree_certification_skips_unreached_subtrees(trees):
    pool, problem, parse = trees
    # the inner x1's high branch is never reached, so its 1-leaf counts for nothing
    assert dt_check_classification(parse("(x1 (x1 (y 1 0) 1) (y 0 1))"), problem)
    assert not dt_check_classification(parse("(x1 (x1 1 (y 1 0)) (y 0 1))"), problem)


def test_tree_certification_rejects_variables_outside_the_problem(trees):
    pool, problem, parse = trees
    pool.declare("z1", "z2")
    with pytest.raises(ValueError, match="outside the problem: z1$"):
        dt_check_classification(parse("(x1 (y 0 1) (z1 0 1))"), problem)
    # also where no assignment reaches the variables
    unreached = "(x1 (x1 (y 0 1) (z1 0 1)) (x1 (z2 0 1) (y 1 0)))"
    with pytest.raises(ValueError, match="outside the problem: z1, z2$"):
        dt_check_classification(parse(unreached), problem)


def _wide_problem(width):
    pool = Pool()
    features = pool.declare(*(f"x{i}" for i in range(width)))
    return pool, ClassificationProblem(features, pool.declare("y"))


def _replace_first(tree, old, new):
    """`tree` with its first `old` subtree (low branches first) replaced by `new`;
    None when it has none."""
    if tree == old:
        return new
    if tree.kind == CONST:
        return None
    pool = tree.pool
    low, high = tree.children
    new_low = _replace_first(low, old, new)
    if new_low is not None:
        return pool.decision(tree.payload, new_low, high)
    new_high = _replace_first(high, old, new)
    return None if new_high is None else pool.decision(tree.payload, low, new_high)


@pytest.mark.parametrize("width", [30, 64])
def test_wide_tree_certification(width):
    # far past the enumeration cap: certification reduces, it does not enumerate
    pool, problem = _wide_problem(width)
    label = problem.label
    features = dt_simplify(random_tree(pool, problem.features, random.Random(width), depth=10))
    assert len(features.vars()) > 20
    tree = attach_label(features, label)
    assert dt_check_classification(tree, problem)
    # the feature tree is read-once, so every leaf is reached: the instances
    # reaching the replaced leaf now allow both labels
    accepting = pool.decision(label, pool.const(0), pool.const(1))
    loose = _replace_first(tree, accepting, pool.const(1))
    assert loose is not None
    assert not dt_check_classification(loose, problem)


def test_wide_rectification_follows_the_flip_rule():
    pool, problem = _wide_problem(30)
    label = problem.label
    rng = random.Random(30)
    sigma = attach_label(random_tree(pool, problem.features, rng, depth=10), label)
    theory = random_tree(pool, problem.all_vars, rng, depth=10)
    assert len(sigma.vars() | theory.vars()) > 20
    out = dt_rectify(sigma, theory, problem)
    assert dt_check_classification(out, problem)
    flipped = 0
    for _ in range(200):
        inst = [rng.randint(0, 1) for _ in problem.features]
        # bit b of a tree's label block is its value with the label set to b
        [allowed] = label_blocks(theory, problem, [inst])
        [block] = label_blocks(sigma, problem, [inst])
        verdict = block >> 1
        if allowed in (0b01, 0b10):  # the theory decides the instance
            flipped += verdict != allowed >> 1
            verdict = allowed >> 1
        assert label_blocks(out, problem, [inst]) == [0b10 if verdict else 0b01]
    assert flipped > 0


def test_attach_label_convention(trees):
    pool, problem, parse = trees
    label = problem.label
    attached = attach_label(parse(REDUCED_TREE_TEXT), label)
    assert attached == parse("(x1 (y 1 0) (x2 (y 1 0) (y 0 1)))")
    assert dt_check_classification(attached, problem)


def test_circuit_round_trips(trees):
    pool, problem, parse = trees
    assert circuit_to_dt(pool.const(1), pool.variables) == pool.const(1)
    tree = parse(THEORY_TREE_TEXT)
    back = circuit_to_dt(tree, pool.variables)
    assert equivalent(back, tree)


def test_expansion_of_conjunction(trees):
    pool, problem, parse = trees
    circ = pool.build(["and", "x1", "x2"])
    assert circuit_to_dt(circ, problem.features) == parse(REDUCED_TREE_TEXT)


class TestForest:
    def test_singleton_matches_tree_rectify(self, trees):
        pool, problem, parse = trees
        sigma_tree = parse(SIGMA_TREE_TEXT)
        theory_tree = parse(THEORY_TREE_TEXT)
        forest = rf_rectify(RandomForest((sigma_tree,)), theory_tree, problem)
        assert forest.trees == (dt_rectify(sigma_tree, theory_tree, problem),)

    def test_identical_trees_stay_identical(self, trees):
        pool, problem, parse = trees
        sigma_tree = parse(SIGMA_TREE_TEXT)
        theory_tree = parse(THEORY_TREE_TEXT)
        forest = rf_rectify(
            RandomForest((sigma_tree,) * 3), theory_tree, problem
        )
        assert len(set(forest.trees)) == 1

    def test_vote_ties_break_negative(self, trees):
        pool, problem, parse = trees
        always_yes = attach_label(pool.const(1), problem.label)
        always_no = attach_label(pool.const(0), problem.label)
        even = RandomForest((always_yes, always_no))
        assert rf_classify(even, "000", problem) == 0
        majority = RandomForest((always_yes, always_yes, always_no))
        assert rf_classify(majority, "000", problem) == 1

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError):
            RandomForest(())

    def test_shipped_forest_file_rectifies(self, demo):
        # three trees over the demo problem: the first matches sigma, the others
        # are different classifiers, so the majority vote is non-trivial
        texts = (
            SIGMA_TREE_TEXT,
            "(x2 (y 1 0) (x1 (y 0 1) (y 1 0)))",
            "(x3 (y 1 0) (x1 (y 1 0) (y 0 1)))",
        )
        forest = RandomForest(tuple(parse_dtree(text, demo.pool) for text in texts))
        theory_tree = circuit_to_dt(demo.theory, demo.problem.all_vars)
        rectified = rf_rectify(forest, theory_tree, demo.problem)
        for tree in rectified.trees:
            clf = Classifier(demo.problem, tree)
            for word in ("000", "001", "010", "011", "100", "101", "110", "111"):
                assert is_fact_compliant(clf, demo.theory, word)
        # the highlighted instance flips to positive for every tree, so the vote does too
        assert rf_classify(rectified, "110", demo.problem) == 1


@given(seed=st.integers(0, 2**32 - 1), n_features=st.integers(1, 5), n_trees=st.integers(1, 5))
def test_a_forest_votes_by_strict_majority_at_label_1(seed, n_features, n_trees):
    rng = random.Random(seed)
    pool = Pool()
    problem = random_problem(pool, n_features)
    trees = tuple(random_tree(pool, problem.all_vars, rng, depth=4) for _ in range(n_trees))
    for i in range(1 << n_features):
        inst = Assignment.from_index(i, problem.features)
        point = Assignment(problem.all_vars, inst.bits + (1,))
        votes = sum(reference_evaluate(tree, point) for tree in trees)
        # ties count as negative
        assert rf_classify(RandomForest(trees), inst, problem) == int(votes > n_trees - votes)


# ----------------------------------------------------------------------
# properties


def _tree_setting(spec_a=None, spec_b=None):
    pool = Pool()
    pool.declare(*NAMES)
    a = tree_from_spec(pool, spec_a) if spec_a is not None else None
    b = tree_from_spec(pool, spec_b) if spec_b is not None else None
    return pool, a, b


def _exhaustive_same(pool, tree, circ):
    over = pool.variables
    for bits in itertools.product((0, 1), repeat=len(over)):
        omega = Assignment(over, bits)
        if reference_evaluate(tree, omega) != evaluate(circ, omega):
            return False
    return True


@given(spec=tree_specs(NAMES))
def test_dt_negate_matches_circuit_negate(spec):
    pool, tree, _ = _tree_setting(spec)
    from monorect import negate

    assert _exhaustive_same(pool, dt_negate(tree), negate(tree))


@given(
    a=tree_specs(NAMES, max_leaves=8),
    b=tree_specs(NAMES, max_leaves=8),
    c=tree_specs(NAMES, max_leaves=8),
)
def test_dt_combinations_match_circuit_combinations(a, b, c):
    from monorect import conjoin, disjoin, negate

    pool, ta, tb = _tree_setting(a, b)
    tc = tree_from_spec(pool, c)
    assert _exhaustive_same(pool, dt_conjoin(ta, tb), conjoin(ta, tb))
    assert _exhaustive_same(pool, dt_disjoin(ta, tb), disjoin(ta, tb))
    # 0-leaves of a become b, 1-leaves become c
    either = disjoin(conjoin(negate(ta), tb), conjoin(ta, tc))
    assert _exhaustive_same(pool, graft(ta, tb, tc), either)
    bound = node_count(ta) + node_count(ta) * node_count(tb)
    assert node_count(dt_conjoin(ta, tb)) <= bound
    assert node_count(dt_disjoin(ta, tb)) <= bound


@given(spec=tree_specs(NAMES, max_leaves=16))
def test_dt_simplify_normal_form_and_equivalence(spec):
    pool, tree, _ = _tree_setting(spec)
    reduced = dt_simplify(tree)
    assert is_read_once(reduced)
    assert is_simplified(reduced)
    assert dt_simplify(reduced) == reduced
    assert _exhaustive_same(pool, reduced, tree)


def twin_tree_specs(names, max_leaves=16):
    """Tree shapes with repeated variables where some nodes get two identical children."""

    def compose(kids):
        name = st.sampled_from(list(names))
        return st.one_of(
            st.tuples(name, kids, kids),
            st.tuples(name, kids).map(lambda t: (t[0], t[1], t[1])),
        )

    return st.recursive(st.sampled_from(["0", "1"]), compose, max_leaves=max_leaves)


@given(
    spec=twin_tree_specs(NAMES),
    on0=twin_tree_specs(NAMES, max_leaves=6),
    on1=twin_tree_specs(NAMES, max_leaves=6),
    name=st.sampled_from(NAMES),
    bit=st.integers(0, 1),
    mapped=st.booleans(),
)
def test_reduce_with_grafts_is_reduce_of_the_graft(spec, on0, on1, name, bit, mapped):
    pool, tree, a = _tree_setting(spec, on0)
    b = tree_from_spec(pool, on1)
    var = pool.var(name)
    leaves = None
    if mapped:  # on0 read negated, on1's leaves read as decisions on a variable off every path
        (y,) = pool.declare("y")
        zero, one = pool.const(0), pool.const(1)
        leaves = ((one, zero), (pool.decision(y, one, zero), pool.decision(y, zero, one)))
    for t in (tree, dt_simplify(tree)):
        for forced in ({}, {var: bit}):
            path = dict(forced)
            grafts = (a, b) if leaves is None else (graft(a, *leaves[0]), graft(b, *leaves[1]))
            want = _reduce(graft(t, *grafts), dict(forced))
            assert _reduce(t, path, (a, b), leaves) == want
            assert path == forced


@given(spec=twin_tree_specs(NAMES), name=st.sampled_from(NAMES), bit=st.integers(0, 1))
def test_reduce_on_a_path_is_condition_then_simplify(spec, name, bit):
    pool, tree, _ = _tree_setting(spec)
    var = pool.var(name)
    expected = dt_simplify(_fix(tree, Literal(var, bool(bit))))
    assert _reduce(tree, {var: bit}) == expected


@given(a=twin_tree_specs(NAMES), b=twin_tree_specs(NAMES))
def test_equality_is_equality_of_printed_text(a, b):
    pool, ta, tb = _tree_setting(a, b)
    again = tree_from_spec(pool, a)
    for x, y in ((ta, tb), (ta, again), (again, dt_negate(ta))):
        same = print_dtree(x) == print_dtree(y)
        assert (x == y) is same
        assert (x != y) is not same
        if same:
            assert hash(x) == hash(y)


def test_leaf_values_are_checked():
    with pytest.raises(BuildError, match="constant must be 0 or 1, got 2"):
        Pool().const(2)


def test_node_repr_and_comparison_with_other_types(trees):
    pool, problem, parse = trees
    assert repr(parse("(x1 0 1)")) == "<Circuit dec size=2>"
    assert parse("(x1 0 1)") != "(x1 0 1)"
    assert pool.const(1) != 1


def test_a_circuit_that_is_not_a_tree_is_rejected_where_it_is_reached(trees):
    pool, problem, parse = trees
    message = "^not a decision tree: found an 'and' gate$"
    conjunction = pool.build(["and", "x1", "x2"])
    sigma, theory = parse(SIGMA_TREE_TEXT), parse(THEORY_TREE_TEXT)
    for call in (
        lambda: dt_rectify(conjunction, theory, problem),
        lambda: dt_rectify(sigma, conjunction, problem),
        lambda: dt_check_classification(conjunction, problem),
        lambda: dt_simplify(conjunction),
        lambda: print_dtree(conjunction),
        lambda: attach_label(conjunction, problem.label),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    # below a decision, too, wherever the walk reaches it
    below = pool.decision(pool.var("x3"), pool.const(0), pool.build(["not", "x1"]))
    with pytest.raises(ValueError, match="^not a decision tree: found a 'not' gate$"):
        print_dtree(below)
    with pytest.raises(ValueError, match="^not a decision tree: found a 'not' gate$"):
        dt_simplify(below)


# ----------------------------------------------------------------------
# stack-based kernels against recursive versions


def recursive_condition(tree, lit):
    if tree.kind == CONST:
        return tree
    low, high = tree.children
    if tree.payload == lit.var:
        return recursive_condition(high if lit.positive else low, lit)
    low = recursive_condition(low, lit)
    return tree.pool.decision(tree.payload, low, recursive_condition(high, lit))


def recursive_graft(tree, on0, on1):
    if tree.kind == CONST:
        return on1 if tree.payload else on0
    low, high = tree.children
    low = recursive_graft(low, on0, on1)
    return tree.pool.decision(tree.payload, low, recursive_graft(high, on0, on1))


def recursive_attach_label(tree, label):
    pool = tree.pool
    if tree.kind == CONST:
        return pool.decision(label, pool.const(1 - tree.payload), pool.const(tree.payload))
    low, high = tree.children
    low = recursive_attach_label(low, label)
    return pool.decision(tree.payload, low, recursive_attach_label(high, label))


def recursive_reduce(tree, path):
    if tree.kind == CONST:
        return tree
    low, high = tree.children
    var = tree.payload
    forced = path.get(var)
    if forced is not None:
        return recursive_reduce(high if forced else low, path)
    path[var] = 0
    low = recursive_reduce(low, path)
    path[var] = 1
    high = recursive_reduce(high, path)
    del path[var]
    if low == high:
        return low
    return tree.pool.decision(var, low, high)


def recursive_node_count(tree):
    if tree.kind == CONST:
        return 1
    return 1 + sum(recursive_node_count(child) for child in tree.children)


def recursive_has_identical_children(tree):
    if tree.kind == CONST:
        return False
    low, high = tree.children
    return (
        low == high
        or recursive_has_identical_children(low)
        or recursive_has_identical_children(high)
    )


def path_text(tree):
    """A tree's text, spelled path by path: each leaf is the end of one root-to-leaf path."""
    pieces = []
    todo = [(tree, "")]
    while todo:
        node, tail = todo.pop()
        if node.kind == CONST:
            pieces.append(f"{node.payload}{tail}")
        else:
            low, high = node.children
            pieces.append(f"({node.payload.name} ")
            todo.append((high, ")" + tail))
            todo.append((low, " "))
    return "".join(pieces)


@given(seed=st.integers(0, 2**32 - 1), ast=ast_exprs(NAMES, max_leaves=10))
def test_the_printer_spells_every_path(seed, ast):
    # shared subtrees (identical children, the reduced trees of circuit_to_dt) are
    # spelled once and copied; the text is the one spelled path by path
    rng = random.Random(seed)
    pool = Pool()
    over = pool.declare(*NAMES)
    trees = [
        random_tree(pool, over, rng, depth=6, leaf_prob=0.15, identical_prob=0.3),
        circuit_to_dt(pool.build(ast), over),
    ]
    for tree in trees:
        assert print_dtree(tree) == path_text(tree)


def _gates(circ):
    """Every gate with its uid, so the order gates were created in counts too."""
    return [
        (g.uid, g.kind, g.payload, tuple(c.uid for c in g.children)) for g in gates_of(circ)
    ]


@given(
    spec=twin_tree_specs(NAMES),
    other=tree_specs(NAMES, max_leaves=4),
    name=st.sampled_from(NAMES),
    bit=st.integers(0, 1),
)
def test_kernels_match_their_recursive_versions(spec, other, name, bit):
    pool, tree, extra = _tree_setting(spec, other)
    var = pool.var(name)
    lit = Literal(var, bool(bit))
    path = {var: bit}
    one, zero = pool.const(1), pool.const(0)
    for got, want in (
        (_fix(tree, lit), recursive_condition(tree, lit)),
        (graft(tree, extra, one), recursive_graft(tree, extra, one)),
        (dt_negate(tree), recursive_graft(tree, one, zero)),
        (attach_label(tree, var), recursive_attach_label(tree, var)),
        (_reduce(tree, path), recursive_reduce(tree, dict(path))),
        (dt_simplify(tree), recursive_reduce(tree, {})),
    ):
        assert got == want
    assert path == {var: bit}
    assert node_count(tree) == recursive_node_count(tree)
    assert has_identical_children(tree) is recursive_has_identical_children(tree)
    # each graft builds in a fresh pool of its own, creating gates in the recursive order
    (a, tree_a, extra_a), (b, tree_b, extra_b) = _tree_setting(spec, other), _tree_setting(spec, other)
    got = attach_label(tree_a, a.var(name))
    assert _gates(got) == _gates(recursive_attach_label(tree_b, b.var(name)))
    got = graft(tree_a, a.const(1), extra_a)
    assert _gates(got) == _gates(recursive_graft(tree_b, b.const(1), extra_b))


@given(spec=tree_specs(NAMES, max_leaves=10))
def test_circuit_to_dt_round_trip(spec):
    pool, tree, _ = _tree_setting(spec)
    back = circuit_to_dt(tree, pool.variables)
    assert is_simplified(back)
    assert _exhaustive_same(pool, back, tree)


# ----------------------------------------------------------------------
# truth-table expansion against the cofactor expansion it replaced


def cofactor_expansion(circ, order):
    """Condition the circuit on each variable of `order` it still mentions, then simplify."""
    order = tuple(order)

    def expand(circ, start):
        if circ.kind == CONST:
            return circ
        live = circ.vars()
        if not live:
            # constant in disguise (unfolded constants in a raw circuit)
            return circ.pool.const(evaluate(circ, Assignment((), ())))
        j = start
        while order[j] not in live:
            j += 1
        var = order[j]
        low = expand(condition(circ, Term([Literal(var, False)])), j + 1)
        high = expand(condition(circ, Term([Literal(var, True)])), j + 1)
        return circ.pool.decision(var, low, high)

    return dt_simplify(expand(circ, 0))


DISGUISED_CONSTANTS = (
    ["and", "v0", ["not", "v0"]],
    ["or", "v0", ["not", "v0"]],
    ["not", "true"],
    ["dec", "v0", "false", ["and", "false", "v0"]],
)


@given(data=st.data())
def test_circuit_to_dt_matches_cofactor_expansion(data):
    n = data.draw(st.integers(1, 6))
    names = [f"v{i}" for i in range(n)]
    pool = Pool()
    declared = pool.declare(*names, *(f"w{i}" for i in range(data.draw(st.integers(0, 2)))))
    expr = data.draw(
        st.one_of(ast_exprs(names, max_leaves=12), st.sampled_from(DISGUISED_CONSTANTS))
    )
    circ = pool.build(expr)
    repeats = data.draw(st.lists(st.sampled_from(declared), max_size=3))
    order = data.draw(st.permutations(list(declared) + repeats))
    assert circuit_to_dt(circ, order) == cofactor_expansion(circ, order)


def test_circuit_to_dt_checks_cap_before_order():
    pool = Pool()
    pool.declare("v0", "v1", "v2")
    circ = pool.build(["and", "v0", "v1", "v2"])
    with pytest.raises(CapExceededError):
        circuit_to_dt(circ, [pool.var("v0")], cap=2)
    with pytest.raises(ValueError, match="expansion order does not cover: v1, v2$"):
        circuit_to_dt(circ, [pool.var("v0")])


def test_combination_growth_stays_polynomial():
    # with eager simplification, each combination stays under the product
    # bound of its (simplified) operands
    rng = random.Random(91)
    for _ in range(150):
        pool = Pool()
        over = pool.declare(*(f"v{i}" for i in range(rng.randint(3, 8))))
        a = dt_simplify(random_tree(pool, over, rng, depth=6))
        b = dt_simplify(random_tree(pool, over, rng, depth=6))
        for combined in (dt_conjoin(a, b), dt_disjoin(a, b)):
            reduced = dt_simplify(combined)
            assert node_count(reduced) <= node_count(a) * node_count(b) + node_count(a)


# ----------------------------------------------------------------------
# structural certification against the per-instance loop


def brute_check_classification(tree, problem):
    """The reference walk at every word over features plus labels, one instance at a time."""
    feats = problem.features
    labels = problem.labels
    for i in range(1 << len(feats)):
        inst = Assignment.from_index(i, feats)
        hits = 0
        for k in range(1 << len(labels)):
            word = Assignment(feats + labels, inst.bits + Assignment.from_index(k, labels).bits)
            hits += reference_evaluate(tree, word)
        if hits != 1:
            return False
    return True


# (features, labels): under 8 table bits, 2-bit blocks, and 4-bit blocks
PROBLEM_SHAPES = ((1, 1), (3, 1), (2, 2))


def _shaped_problem(n_features, n_labels):
    pool = Pool()
    features = pool.declare(*(f"x{i + 1}" for i in range(n_features)))
    labels = pool.declare(*(f"y{i + 1}" for i in range(n_labels)))
    return pool, ClassificationProblem(features, labels)


def _one_hot_label_tree(pool, labels, k, prefix=0):
    """Tree over the labels whose only 1-leaf is at label word number k."""
    if not labels:
        return pool.const(int(prefix == k))
    head, rest = labels[0], labels[1:]
    return pool.decision(
        head,
        _one_hot_label_tree(pool, rest, k, 2 * prefix),
        _one_hot_label_tree(pool, rest, k, 2 * prefix + 1),
    )


def _classification_tree(spec, pool, labels):
    """Feature tree whose leaves (label word numbers) become one-hot label trees."""
    if isinstance(spec, int):
        return _one_hot_label_tree(pool, labels, spec)
    name, low, high = spec
    return pool.decision(
        pool.var(name),
        _classification_tree(low, pool, labels),
        _classification_tree(high, pool, labels),
    )


@given(data=st.data(), shape=st.sampled_from(PROBLEM_SHAPES), certified=st.booleans())
def test_structural_certification_matches_per_instance_loop(data, shape, certified):
    pool, problem = _shaped_problem(*shape)
    names = [v.name for v in problem.features]
    if certified:
        # certified by construction; repeated features may leave regions unreached
        leaves = st.integers(0, (1 << len(problem.labels)) - 1)
        spec = data.draw(
            st.recursive(
                leaves,
                lambda kids: st.tuples(st.sampled_from(names), kids, kids),
                max_leaves=12,
            )
        )
        tree = _classification_tree(spec, pool, problem.labels)
        assert brute_check_classification(tree, problem)
    else:
        # any tree over features and labels, bare leaves and repeats included
        spec = data.draw(tree_specs([v.name for v in problem.all_vars], max_leaves=16))
        tree = tree_from_spec(pool, spec)
    verdict = brute_check_classification(tree, problem)
    assert dt_check_classification(tree, problem) == verdict
    if problem.mono_label:
        # dt_rectify certifies the same way, whatever the theory
        spec = data.draw(tree_specs([v.name for v in problem.all_vars], max_leaves=8))
        theory = tree_from_spec(pool, spec)
        if verdict:
            dt_rectify(tree, theory, problem)
        else:
            with pytest.raises(CertificationError):
                dt_rectify(tree, theory, problem)


@pytest.mark.parametrize("shape", PROBLEM_SHAPES)
def test_bare_leaves_are_not_classifiers(shape):
    pool, problem = _shaped_problem(*shape)
    for leaf in (pool.const(0), pool.const(1)):
        assert not brute_check_classification(leaf, problem)
        assert not dt_check_classification(leaf, problem)


def test_two_label_certification():
    pool, problem = _shaped_problem(2, 2)
    x1, x2 = problem.features
    # x1=0 gets labels 01, x1=1 splits on x2 into 10 and 11
    words = [_one_hot_label_tree(pool, problem.labels, k) for k in (1, 2, 3)]
    high = pool.decision(x2, words[1], words[2])
    tree = pool.decision(x1, words[0], high)
    assert dt_check_classification(tree, problem)
    # one instance allowing two label words
    y1, y2 = problem.labels
    both = pool.decision(y2, pool.const(1), pool.const(1))
    loose = pool.decision(x1, pool.decision(y1, pool.const(0), both), high)
    assert not brute_check_classification(loose, problem)
    assert not dt_check_classification(loose, problem)


# ----------------------------------------------------------------------
# deep trees: no operation may run into the recursion limit

DEEP = 100_000


def _deep_chain(pool, x1, x2):
    tree = pool.const(1)
    for i in range(DEEP):
        tree = pool.decision(x1 if i % 2 else x2, pool.const(0), tree)
    return tree


def test_deep_classifier_tree_certifies_and_rectifies(trees):
    pool, problem, parse = trees
    y = problem.label
    zero, one = pool.const(0), pool.const(1)
    pos, neg, both = (pool.decision(y, a, b) for a, b in ((zero, one), (one, zero), (one, one)))

    def chain(bottom):
        # (x1 (y 1 0) (x2 (y 0 1) (x3 (y 1 0) (x1 (y 0 1) ... bottom)))): below the first
        # three nodes every path is forced to x1 = x2 = x3 = 1, down to `bottom`
        tree = bottom
        for i in range(DEEP - 1, -1, -1):
            tree = pool.decision(problem.features[i % 3], pos if i % 2 else neg, tree)
        return tree

    sigma = chain(pos)
    assert dt_check_classification(sigma, problem)
    # the theory forces label 1 where x1 = 0
    out = dt_rectify(sigma, pool.decision(problem.features[0], pos, one), problem)
    assert print_dtree(out) == "(x1 (y 0 1) (x2 (y 0 1) (x3 (y 1 0) (y 0 1))))"
    # one instance, 111, allows both labels
    loose = chain(both)
    assert not dt_check_classification(loose, problem)
    with pytest.raises(CertificationError):
        dt_rectify(loose, pool.const(1), problem)


def test_equality_hash_and_repr_of_a_deep_tree():
    # two separately built 1e5-deep chains of one pool are one gate
    pool = Pool()
    x1, x2 = pool.declare("x1", "x2")
    a, b = _deep_chain(pool, x1, x2), _deep_chain(pool, x1, x2)
    assert a == b and not a != b
    assert a.uid == b.uid
    assert hash(a) == hash(b)
    assert a != dt_negate(b)
    assert repr(a) == repr(b) == f"<Circuit dec size={2 * DEEP}>"
    text = print_dtree(a)
    assert text.count("(x") == DEEP
    assert text.endswith(" 1" + ")" * DEEP)


def test_tree_helpers_on_a_deep_tree():
    pool = Pool()
    over = pool.declare(*(f"v{i}" for i in range(DEEP)))
    zero, one = pool.const(0), pool.const(1)

    def chain(bottom):
        # (v0 0 (v1 1 (v2 0 ... bottom)))
        tree = bottom
        for i in range(DEEP - 2, -1, -1):
            tree = pool.decision(over[i], pool.const(i % 2), tree)
        return tree

    tree = chain(pool.decision(over[-1], zero, one))
    assert node_count(tree) == 2 * DEEP + 1
    assert decision_count(tree) == DEEP
    assert is_read_once(tree) and not has_identical_children(tree)
    assert dt_simplify(tree) == tree
    assert _reduce(tree, {over[0]: 1}) == tree.children[1]
    assert node_count(_fix(tree, Literal(over[-1], True))) == 2 * DEEP - 1
    assert not is_read_once(chain(pool.decision(over[0], zero, one)))
    twins = chain(pool.decision(over[-1], one, one))
    assert has_identical_children(twins)
    assert decision_count(dt_simplify(twins)) == DEEP - 1
    rng = random.Random(5)
    for cut in (0, 1, DEEP // 2, DEEP - 1, DEEP):
        # ones down to `cut`, then a zero: the walk leaves the chain at `cut`
        bits = [1] * cut + [0] + [rng.randint(0, 1) for _ in range(DEEP - cut - 1)]
        omega = Assignment(over, bits[:DEEP])
        assert evaluate(tree, omega) == reference_evaluate(tree, omega)


# ----------------------------------------------------------------------
# Read trees: a tree file's tree lives in the file's own pool, and a
# tree's variables are checked against its pool's declarations, with no
# walk when the pool declares only the problem's.


def _outcome(call):
    try:
        return "ok", call()
    except Exception as error:
        return type(error).__name__, str(error)


@pytest.mark.parametrize("text", ["0", "1"])
def test_a_bare_leaf_reads_as_a_leaf_without_variables(text):
    pool = Pool()
    pool.declare("x1", "y")
    leaf = parse_dtree(text, pool)
    assert leaf == pool.const(int(text))
    assert leaf.vars() == frozenset()
    for order in itertools.permutations(("(features x1)", "(labels y)", f"(tree {text})")):
        tree = parse_tree_file("".join(order)).tree
        assert (tree.kind, tree.payload) == (CONST, int(text))


@given(
    seed=st.integers(0, 2**32 - 1),
    sigma_over=st.sampled_from(["features", "features and z1", "all"]),
    theory_over=st.sampled_from(["all", "all and z1"]),
)
def test_rectifying_read_trees_prints_what_rebuilt_copies_print(seed, sigma_over, theory_over):
    pool = Pool()
    problem = ClassificationProblem(pool.declare("x1", "x2", "x3", "x4"), pool.declare("y"))
    (z1,) = pool.declare("z1")
    rng = random.Random(seed)
    if sigma_over == "all":  # mostly not a classifier
        sigma = random_tree(pool, problem.all_vars, rng, depth=5)
    else:
        extra = (z1,) if sigma_over == "features and z1" else ()
        sigma = attach_label(random_tree(pool, problem.features + extra, rng, depth=5), problem.label)
    extra = (z1,) if theory_over == "all and z1" else ()
    theory = random_tree(pool, problem.all_vars + extra, rng, depth=5)
    # the same trees read into a second pool that declares the same variables
    copies = Pool()
    copies.declare(*(v.name for v in pool.variables))
    read_sigma, read_theory = (parse_dtree(print_dtree(tree), copies) for tree in (sigma, theory))
    assert _outcome(lambda: dt_check_classification(read_sigma, problem)) == _outcome(
        lambda: dt_check_classification(sigma, problem)
    )
    rectified = _outcome(lambda: print_dtree(dt_rectify(sigma, theory, problem)))
    assert rectified == _outcome(lambda: print_dtree(dt_rectify(read_sigma, read_theory, problem)))
    assert rectified == _outcome(lambda: print_dtree(dt_rectify(sigma, read_theory, problem)))


def _sized_tree(pool, rng, over, depth, internal, leaf):
    """A random tree with exactly `internal` decisions and depth at most `depth`."""
    if internal == 0:
        return leaf()
    cap = (1 << (depth - 1)) - 1
    low = rng.randint(max(0, internal - 1 - cap), min(cap, internal - 1))
    return pool.decision(
        rng.choice(over),
        _sized_tree(pool, rng, over, depth - 1, low, leaf),
        _sized_tree(pool, rng, over, depth - 1, internal - 1 - low, leaf),
    )


def test_a_bench_shaped_read_pair_rectifies_as_its_rebuilt_copy(monkeypatch):
    # the shape of the tree-pipeline benchmark's largest class: 12 features, depth 16-18
    pool = Pool()
    features = pool.declare(*(f"x{i}" for i in range(1, 13)))
    problem = ClassificationProblem(features, pool.declare("y"))
    y = problem.label
    rng = random.Random(12)
    zero, one = pool.const(0), pool.const(1)
    classes = pool.decision(y, one, zero), pool.decision(y, zero, one)
    sigma = _sized_tree(pool, rng, features, 16, 2000, lambda: rng.choice(classes))
    theory = _sized_tree(pool, rng, problem.all_vars, 16, 1000, lambda: rng.choice((zero, one)))
    assert decision_count(sigma) + decision_count(theory) >= 3000
    head = f"(features {' '.join(v.name for v in features)})\n(labels y)\n"
    read_sigma, read_theory = (
        parse_tree_file(head + f"(tree {print_dtree(tree)})\n") for tree in (sigma, theory)
    )
    walks = var_walks(monkeypatch)
    out = dt_rectify(read_sigma.tree, read_theory.tree, problem)
    assert walks == []
    assert print_dtree(out) == print_dtree(dt_rectify(sigma, theory, problem))
    assert walks == []
    # the output lives in the theory's pool, and no uid of the classifier's pool leaks into it:
    # its text, read back into the theory's pool, is the same gate
    assert out.pool is read_theory.pool
    assert parse_dtree(print_dtree(out), read_theory.pool) == out


SIGMA_OUTSIDE = "^tree mentions variables outside the problem: z1$"
THEORY_OUTSIDE = "^theory tree mentions variables outside the problem: z1$"


def test_trees_built_on_read_trees_are_walked(trees, monkeypatch):
    pool, problem, parse = trees
    (z1,) = pool.declare("z1")
    x1, x3 = pool.var("x1"), pool.var("x3")
    sigma, theory = parse(SIGMA_TREE_TEXT), parse(THEORY_TREE_TEXT)
    # the pool declares z1, so every tree of it is walked for its variables
    walks = var_walks(monkeypatch)
    with pytest.raises(ValueError, match=SIGMA_OUTSIDE):
        dt_rectify(pool.decision(z1, sigma, pool.const(0)), theory, problem)
    with pytest.raises(ValueError, match=SIGMA_OUTSIDE):
        dt_check_classification(pool.decision(z1, sigma, pool.const(0)), problem)
    with pytest.raises(ValueError, match=THEORY_OUTSIDE):
        dt_rectify(sigma, pool.decision(z1, theory, pool.const(0)), problem)
    assert [walked.kind for walked in walks] == [DEC] * 4
    assert walks[0] == theory

    wide = parse("(x1 (y 0 1) (z1 (y 0 1) (x2 (y 1 0) (y 0 1))))")
    kept_z1 = _fix(wide, Literal(x1, True))
    dropped_z1 = _fix(wide, Literal(z1, False))
    labelled = attach_label(parse("(x1 0 (z1 1 (x2 0 1)))"), problem.label)
    theory_z1 = _fix(parse("(z1 (x1 0 (y 0 1)) 1)"), Literal(x1, False))
    for built in (kept_z1, dropped_z1, labelled, theory_z1):
        assert built.vars() == reference_tree_vars(built)
    for built in (kept_z1, labelled):
        with pytest.raises(ValueError, match=SIGMA_OUTSIDE):
            dt_check_classification(built, problem)
        with pytest.raises(ValueError, match=SIGMA_OUTSIDE):
            dt_rectify(built, theory, problem)
    with pytest.raises(ValueError, match=THEORY_OUTSIDE):
        dt_rectify(sigma, theory_z1, problem)
    # z1 conditioned away: the same output as from a pool that never declared it
    out = print_dtree(dt_rectify(dropped_z1, theory, problem))
    clean = Pool()
    clean.declare(*NAMES, "y")
    read = (parse_dtree(print_dtree(tree), clean) for tree in (dropped_z1, theory))
    assert out == print_dtree(dt_rectify(*read, problem))

    # a kernel that changes nothing returns the tree itself
    unchanged = _fix(wide, Literal(x3, True))
    assert unchanged == wide
    with pytest.raises(ValueError, match=SIGMA_OUTSIDE):
        dt_check_classification(unchanged, problem)


# ----------------------------------------------------------------------
# The tree route against the independent instance oracle


@given(
    seed=st.integers(0, 2**32 - 1),
    n_features=st.integers(1, 6),
    depth=st.integers(0, 6),
    from_files=st.booleans(),
)
def test_tree_route_matches_the_instance_oracle(seed, n_features, depth, from_files):
    pool = Pool()
    problem = random_problem(pool, n_features)
    rng = random.Random(seed)
    sigma = attach_label(random_tree(pool, problem.features, rng, depth=depth), problem.label)
    theory = random_tree(pool, problem.all_vars, rng, depth=depth)
    if from_files:  # two tree files, so two pools, as the dt-rectify command reads them
        head = f"(features {' '.join(v.name for v in problem.features)})\n(labels y)\n"
        sigma, theory = (
            parse_tree_file(head + f"(tree {print_dtree(tree)})\n").tree for tree in (sigma, theory)
        )
        assert sigma.pool is not theory.pool
    out = dt_rectify(sigma, theory, problem)
    blocks = (label_blocks(tree, problem) for tree in (sigma, theory))
    assert label_blocks(out, problem) == oracle_rectify(*blocks, problem)


POOLS_DIFFER = "^sigma and theory trees come from pools that declare different variables$"


def test_trees_from_pools_with_different_declarations_are_rejected():
    sigma = parse_tree_file("(features x1 x2)\n(labels y)\n(tree (x1 (y 1 0) (y 0 1)))\n")
    theory = parse_tree_file("(features x1 x2 z1)\n(labels y)\n(tree (x2 1 (x1 0 1)))\n")
    with pytest.raises(ValueError, match=POOLS_DIFFER):
        dt_rectify(sigma.tree, theory.tree, sigma.problem)
    # the checks that came before keep their order
    with pytest.raises(CertificationError):
        dt_rectify(theory.tree, theory.tree, sigma.problem)
