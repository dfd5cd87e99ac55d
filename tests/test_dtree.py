import itertools
import random

import pytest
from hypothesis import given, strategies as st

from monorect import (
    Assignment,
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
    dt_condition,
    dt_eval,
    dt_rectify,
    dt_simplify,
    dt_to_circuit,
    dt_vars,
    equivalent,
    evaluate,
    is_fact_compliant,
    is_read_once,
    iter_gates,
    parse_dtree,
    print_circuit,
    print_dtree,
    rectify,
    rf_classify,
    rf_rectify,
)
from monorect.circuit import CONST
from monorect.dtree import (
    DTLeaf,
    DTNode,
    LEAF0,
    LEAF1,
    _ReadRoot,
    _graft,
    _reduce,
    has_identical_children,
)
from monorect.formats import parse_tree_file
from monorect.randgen import random_tree

from conftest import (
    ast_exprs,
    decision_count,
    DEMO_SIGMA_AST,
    DEMO_THEORY_AST,
    dt_conjoin,
    dt_disjoin,
    dt_negate,
    is_simplified,
    node_count,
    rebuilt_tree,
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


def test_condition_on_label_selects_subtree(trees):
    pool, problem, parse = trees
    theory = parse(THEORY_TREE_TEXT)
    label = problem.label
    assert dt_condition(theory, Literal(label, True)) == parse("(x2 0 1)")
    assert dt_condition(theory, Literal(label, False)) == parse("(x1 1 (x3 0 1))")


def test_condition_on_leaf_is_identity(trees):
    pool, problem, parse = trees
    assert dt_condition(LEAF1, Literal(problem.label)) == LEAF1


def test_conditioned_classifier_tree_matches_accepted_region(trees):
    pool, problem, parse = trees
    sigma_tree = parse(SIGMA_TREE_TEXT)
    region_tree = dt_condition(sigma_tree, Literal(problem.label, True))
    expected = pool.build(
        ["or", ["and", ["not", "x1"], ["not", "x2"]], ["and", "x1", "x3"]]
    )
    assert equivalent(dt_to_circuit(region_tree, pool), expected)


def test_negate_swaps_leaves(trees):
    pool, problem, parse = trees
    assert dt_negate(LEAF1) == LEAF0
    theory = parse(THEORY_TREE_TEXT)
    assert dt_negate(dt_negate(theory)) == theory
    negated_pos = dt_negate(dt_condition(theory, Literal(problem.label, True)))
    assert equivalent(dt_to_circuit(negated_pos, pool), pool.build(["not", "x2"]))


def test_combinations_reproduce_the_worked_pipeline(trees):
    pool, problem, parse = trees
    label = problem.label
    sigma_x = dt_condition(parse(SIGMA_TREE_TEXT), Literal(label, True))
    theory = parse(THEORY_TREE_TEXT)
    th_pos = dt_condition(theory, Literal(label, True))
    th_neg = dt_condition(theory, Literal(label, False))

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
    assert dt_conjoin(theory, LEAF1) == theory
    assert dt_disjoin(theory, LEAF0) == theory


def test_simplify_merges_identical_children(trees):
    pool, problem, parse = trees
    x1 = pool.var("x1")
    assert dt_simplify(DTNode(x1, LEAF0, LEAF0)) == LEAF0


def test_rectify_pipeline_end_to_end(trees):
    pool, problem, parse = trees
    out = dt_rectify(parse(SIGMA_TREE_TEXT), parse(THEORY_TREE_TEXT), problem)
    region = dt_condition(out, Literal(problem.label, True))
    assert region == parse(REDUCED_TREE_TEXT)
    circuit = dt_to_circuit(out, pool)
    clf = Classifier(problem, pool.build(DEMO_SIGMA_AST))
    result = rectify(clf, pool.build(DEMO_THEORY_AST))
    assert equivalent(circuit, result.rectified.circuit)


def test_rectify_by_constant_theories_changes_nothing(trees):
    pool, problem, parse = trees
    sigma_tree = parse(SIGMA_TREE_TEXT)
    for leaf in (LEAF1, LEAF0):
        out = dt_rectify(sigma_tree, leaf, problem)
        assert equivalent(dt_to_circuit(out, pool), dt_to_circuit(sigma_tree, pool))


def test_rectify_rejects_uncertified_trees(trees):
    pool, problem, parse = trees
    not_a_classifier = parse("(x1 0 1)")  # never touches the label
    with pytest.raises(CertificationError):
        dt_rectify(not_a_classifier, LEAF1, problem)


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
    assert not dt_check_classification(LEAF1, problem)


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
    return ClassificationProblem(features, pool.declare("y"))


def _replace_first(tree, old, new):
    """`tree` with its first `old` subtree (low branches first) replaced by `new`;
    None when it has none."""
    if tree == old:
        return new
    if isinstance(tree, DTLeaf):
        return None
    low = _replace_first(tree.low, old, new)
    if low is not None:
        return DTNode(tree.var, low, tree.high)
    high = _replace_first(tree.high, old, new)
    return None if high is None else DTNode(tree.var, tree.low, high)


@pytest.mark.parametrize("width", [30, 64])
def test_wide_tree_certification(width):
    # far past the enumeration cap: certification reduces, it does not enumerate
    problem = _wide_problem(width)
    label = problem.label
    features = dt_simplify(random_tree(problem.features, random.Random(width), depth=10))
    assert len(dt_vars(features)) > 20
    tree = attach_label(features, label)
    assert dt_check_classification(tree, problem)
    # the feature tree is read-once, so every leaf is reached: the instances
    # reaching the replaced leaf now allow both labels
    loose = _replace_first(tree, DTNode(label, LEAF0, LEAF1), LEAF1)
    assert loose is not None
    assert not dt_check_classification(loose, problem)


def test_wide_rectification_follows_the_flip_rule():
    problem = _wide_problem(30)
    label = problem.label
    rng = random.Random(30)
    sigma = attach_label(random_tree(problem.features, rng, depth=10), label)
    theory = random_tree(problem.all_vars, rng, depth=10)
    assert len(dt_vars(sigma) | dt_vars(theory)) > 20
    out = dt_rectify(sigma, theory, problem)
    assert dt_check_classification(out, problem)
    flipped = 0
    for _ in range(200):
        inst = Assignment(problem.features, [rng.randint(0, 1) for _ in problem.features])
        pos, neg = (dt_eval(theory, inst.extended(label, bit)) for bit in (1, 0))
        verdict = dt_eval(sigma, inst.extended(label, 1))
        if pos != neg:  # the theory decides the instance
            flipped += verdict != pos
            verdict = pos
        assert dt_eval(out, inst.extended(label, 1)) == verdict
        assert dt_eval(out, inst.extended(label, 0)) == 1 - verdict
    assert flipped > 0


def test_attach_label_convention(trees):
    pool, problem, parse = trees
    label = problem.label
    attached = attach_label(parse(REDUCED_TREE_TEXT), label)
    assert attached == parse("(x1 (y 1 0) (x2 (y 1 0) (y 0 1)))")
    assert dt_check_classification(attached, problem)


def test_circuit_round_trips(trees):
    pool, problem, parse = trees
    assert dt_to_circuit(LEAF1, pool) == pool.const(1)
    tree = parse(THEORY_TREE_TEXT)
    back = circuit_to_dt(dt_to_circuit(tree, pool), pool.variables)
    assert equivalent(dt_to_circuit(back, pool), dt_to_circuit(tree, pool))


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
        always_yes = attach_label(LEAF1, problem.label)
        always_no = attach_label(LEAF0, problem.label)
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
            clf = Classifier(demo.problem, dt_to_circuit(tree, demo.pool))
            for word in ("000", "001", "010", "011", "100", "101", "110", "111"):
                assert is_fact_compliant(clf, demo.theory, word)
        # the highlighted instance flips to positive for every tree, so the vote does too
        assert rf_classify(rectified, "110", demo.problem) == 1


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
        if dt_eval(tree, omega) != evaluate(circ, omega):
            return False
    return True


@given(spec=tree_specs(NAMES), positive=st.booleans(), name=st.sampled_from(NAMES))
def test_dt_condition_matches_circuit_condition(spec, positive, name):
    pool, tree, _ = _tree_setting(spec)
    lit = Literal(pool.var(name), positive)
    conditioned = dt_condition(tree, lit)
    assert lit.var not in dt_vars(conditioned)
    expected = condition(dt_to_circuit(tree, pool), Term([lit]))
    assert _exhaustive_same(pool, conditioned, expected)


@given(spec=tree_specs(NAMES))
def test_dt_negate_matches_circuit_negate(spec):
    pool, tree, _ = _tree_setting(spec)
    from monorect import negate

    assert _exhaustive_same(pool, dt_negate(tree), negate(dt_to_circuit(tree, pool)))


@given(
    a=tree_specs(NAMES, max_leaves=8),
    b=tree_specs(NAMES, max_leaves=8),
    c=tree_specs(NAMES, max_leaves=8),
)
def test_dt_combinations_match_circuit_combinations(a, b, c):
    from monorect import conjoin, disjoin, negate

    pool, ta, tb = _tree_setting(a, b)
    tc = tree_from_spec(pool, c)
    ca, cb, cc = (dt_to_circuit(t, pool) for t in (ta, tb, tc))
    assert _exhaustive_same(pool, dt_conjoin(ta, tb), conjoin(ca, cb))
    assert _exhaustive_same(pool, dt_disjoin(ta, tb), disjoin(ca, cb))
    # 0-leaves of a become b, 1-leaves become c
    either = disjoin(conjoin(negate(ca), cb), conjoin(ca, cc))
    assert _exhaustive_same(pool, _graft(ta, tb, tc), either)
    bound = node_count(ta) + node_count(ta) * node_count(tb)
    assert node_count(dt_conjoin(ta, tb)) <= bound
    assert node_count(dt_disjoin(ta, tb)) <= bound


@given(spec=tree_specs(NAMES, max_leaves=16))
def test_dt_simplify_normal_form_and_equivalence(spec):
    pool, tree, _ = _tree_setting(spec)
    reduced = dt_simplify(tree)
    assert is_read_once(reduced)
    assert is_simplified(reduced)
    assert dt_simplify(reduced) is reduced
    assert _exhaustive_same(pool, reduced, dt_to_circuit(tree, pool))


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
)
def test_reduce_with_grafts_is_reduce_of_the_graft(spec, on0, on1, name, bit):
    pool, tree, a = _tree_setting(spec, on0)
    b = tree_from_spec(pool, on1)
    var = pool.var(name)
    for t in (tree, dt_simplify(tree)):
        for forced in ({}, {var: bit}):
            path = dict(forced)
            want = _reduce(_graft(t, a, b), dict(forced))
            assert print_dtree(_reduce(t, path, (a, b))) == print_dtree(want)
            assert path == forced


@given(spec=twin_tree_specs(NAMES), name=st.sampled_from(NAMES), bit=st.integers(0, 1))
def test_reduce_on_a_path_is_condition_then_simplify(spec, name, bit):
    pool, tree, _ = _tree_setting(spec)
    var = pool.var(name)
    expected = dt_simplify(dt_condition(tree, Literal(var, bool(bit))))
    assert _reduce(tree, {var: bit}) == expected


def shared_tree_from_spec(pool, spec, memo=None):
    """Like `tree_from_spec`, but equal sub-shapes share one node object."""
    memo = {} if memo is None else memo
    if spec not in memo:
        if spec in ("0", "1"):
            memo[spec] = DTLeaf(int(spec))
        else:
            name, low, high = spec
            memo[spec] = DTNode(
                pool.var(name),
                shared_tree_from_spec(pool, low, memo),
                shared_tree_from_spec(pool, high, memo),
            )
    return memo[spec]


@given(a=twin_tree_specs(NAMES), b=twin_tree_specs(NAMES))
def test_equality_is_equality_of_printed_text(a, b):
    pool, ta, tb = _tree_setting(a, b)
    again = tree_from_spec(pool, a)
    shared = shared_tree_from_spec(pool, a)
    for x, y in ((ta, tb), (ta, again), (ta, shared), (shared, tb), (again, dt_negate(ta))):
        same = print_dtree(x) == print_dtree(y)
        assert (x == y) is same
        assert (x != y) is not same
        if same:
            assert hash(x) == hash(y)


def test_leaf_values_are_checked():
    with pytest.raises(ValueError, match="leaf value must be 0 or 1"):
        DTLeaf(2)


def test_node_repr_and_comparison_with_other_types(trees):
    pool, problem, parse = trees
    assert repr(parse("(x1 0 1)")) == (
        "DTNode(var=VarId(index=0, name='x1'), low=DTLeaf(value=0), high=DTLeaf(value=1))"
    )
    assert parse("(x1 0 1)") != "(x1 0 1)"
    assert LEAF1 != 1


# ----------------------------------------------------------------------
# stack-based kernels against the recursive ones they replaced


def recursive_condition(tree, lit):
    if isinstance(tree, DTLeaf):
        return tree
    if tree.var == lit.var:
        return recursive_condition(tree.high if lit.positive else tree.low, lit)
    low = recursive_condition(tree.low, lit)
    high = recursive_condition(tree.high, lit)
    if low is tree.low and high is tree.high:
        return tree
    return DTNode(tree.var, low, high)


def recursive_graft(tree, on0, on1):
    if isinstance(tree, DTLeaf):
        return on1 if tree.value else on0
    low = recursive_graft(tree.low, on0, on1)
    high = recursive_graft(tree.high, on0, on1)
    if low is tree.low and high is tree.high:
        return tree
    return DTNode(tree.var, low, high)


def recursive_reduce(tree, path):
    if isinstance(tree, DTLeaf):
        return tree
    forced = path.get(tree.var)
    if forced is not None:
        return recursive_reduce(tree.high if forced else tree.low, path)
    path[tree.var] = 0
    low = recursive_reduce(tree.low, path)
    path[tree.var] = 1
    high = recursive_reduce(tree.high, path)
    del path[tree.var]
    if low == high:
        return low
    if low is tree.low and high is tree.high:
        return tree
    return DTNode(tree.var, low, high)


def recursive_node_count(tree):
    if isinstance(tree, DTLeaf):
        return 1
    return 1 + recursive_node_count(tree.low) + recursive_node_count(tree.high)


def recursive_has_identical_children(tree):
    if isinstance(tree, DTLeaf):
        return False
    return (
        tree.low == tree.high
        or recursive_has_identical_children(tree.low)
        or recursive_has_identical_children(tree.high)
    )


def recursive_hash(tree):
    if isinstance(tree, DTLeaf):
        return hash(tree.value)
    return hash((tree.var, recursive_hash(tree.low), recursive_hash(tree.high)))


def recursive_to_circuit(tree, pool):
    if isinstance(tree, DTLeaf):
        return pool.const(tree.value)
    low = recursive_to_circuit(tree.low, pool)
    high = recursive_to_circuit(tree.high, pool)
    return pool.decision(tree.var, low, high)


def _gates(circ):
    """Every gate with its uid, so the order gates were created in counts too."""
    return [
        (g.uid, g.kind, g.payload, tuple(c.uid for c in g.children)) for g in iter_gates(circ)
    ]


def _kept_nodes(out, *inputs):
    """Ids of the input nodes (leaves included) that the output reuses."""
    ids = set()
    todo = list(inputs)
    while todo:
        node = todo.pop()
        ids.add(id(node))
        if isinstance(node, DTNode):
            todo += [node.low, node.high]
    kept, todo = set(), [out]
    while todo:
        node = todo.pop()
        if id(node) in ids:
            kept.add(id(node))
        if isinstance(node, DTNode):
            todo += [node.low, node.high]
    return kept


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
    for got, want in (
        (dt_condition(tree, lit), recursive_condition(tree, lit)),
        (_graft(tree, extra, LEAF1), recursive_graft(tree, extra, LEAF1)),
        (dt_negate(tree), recursive_graft(tree, LEAF1, LEAF0)),
        (_reduce(tree, path), recursive_reduce(tree, dict(path))),
        (dt_simplify(tree), recursive_reduce(tree, {})),
    ):
        assert print_dtree(got) == print_dtree(want)
        assert _kept_nodes(got, tree, extra) == _kept_nodes(want, tree, extra)
    assert path == {var: bit}
    assert node_count(tree) == recursive_node_count(tree)
    assert has_identical_children(tree) is recursive_has_identical_children(tree)
    assert hash(tree) == recursive_hash(tree)
    # each conversion builds in a fresh pool of its own
    got = dt_to_circuit(tree, _tree_setting()[0])
    want = recursive_to_circuit(tree, _tree_setting()[0])
    assert print_circuit(got) == print_circuit(want)
    assert _gates(got) == _gates(want)


@given(spec=tree_specs(NAMES, max_leaves=10))
def test_circuit_to_dt_round_trip(spec):
    pool, tree, _ = _tree_setting(spec)
    circ = dt_to_circuit(tree, pool)
    back = circuit_to_dt(circ, pool.variables)
    assert is_simplified(back)
    assert _exhaustive_same(pool, back, circ)


# ----------------------------------------------------------------------
# truth-table expansion against the cofactor expansion it replaced


def cofactor_expansion(circ, order):
    """Condition the circuit on each variable of `order` it still mentions, then simplify."""
    order = tuple(order)

    def expand(circ, start):
        if circ.root.kind == CONST:
            return DTLeaf(circ.root.payload)
        live = circ.vars()
        if not live:
            # constant in disguise (unfolded constants in a raw circuit)
            return DTLeaf(evaluate(circ, Assignment((), ())))
        j = start
        while order[j] not in live:
            j += 1
        var = order[j]
        low = expand(condition(circ, Term([Literal(var, False)])), j + 1)
        high = expand(condition(circ, Term([Literal(var, True)])), j + 1)
        return DTNode(var, low, high)

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
        a = dt_simplify(random_tree(over, rng, depth=6))
        b = dt_simplify(random_tree(over, rng, depth=6))
        for combined in (dt_conjoin(a, b), dt_disjoin(a, b)):
            reduced = dt_simplify(combined)
            assert node_count(reduced) <= node_count(a) * node_count(b) + node_count(a)


# ----------------------------------------------------------------------
# structural certification against the per-instance loop


def brute_check_classification(tree, problem):
    """dt_eval at every word over features plus labels, one instance at a time."""
    feats = problem.features
    labels = problem.labels
    for i in range(1 << len(feats)):
        inst = Assignment.from_index(i, feats)
        hits = 0
        for k in range(1 << len(labels)):
            word = Assignment(feats + labels, inst.bits + Assignment.from_index(k, labels).bits)
            hits += dt_eval(tree, word)
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


def _one_hot_label_tree(labels, k, prefix=0):
    """Tree over the labels whose only 1-leaf is at label word number k."""
    if not labels:
        return LEAF1 if prefix == k else LEAF0
    head, rest = labels[0], labels[1:]
    return DTNode(
        head,
        _one_hot_label_tree(rest, k, 2 * prefix),
        _one_hot_label_tree(rest, k, 2 * prefix + 1),
    )


def _classification_tree(spec, pool, labels):
    """Feature tree whose leaves (label word numbers) become one-hot label trees."""
    if isinstance(spec, int):
        return _one_hot_label_tree(labels, spec)
    name, low, high = spec
    return DTNode(
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
    assert dt_check_classification(tree, problem) == brute_check_classification(tree, problem)


@pytest.mark.parametrize("shape", PROBLEM_SHAPES)
def test_bare_leaves_are_not_classifiers(shape):
    pool, problem = _shaped_problem(*shape)
    for leaf in (LEAF0, LEAF1):
        assert not brute_check_classification(leaf, problem)
        assert not dt_check_classification(leaf, problem)


def test_two_label_certification():
    pool, problem = _shaped_problem(2, 2)
    x1, x2 = problem.features
    # x1=0 gets labels 01, x1=1 splits on x2 into 10 and 11
    tree = DTNode(
        x1,
        _one_hot_label_tree(problem.labels, 1),
        DTNode(x2, _one_hot_label_tree(problem.labels, 2), _one_hot_label_tree(problem.labels, 3)),
    )
    assert dt_check_classification(tree, problem)
    # one instance allowing two label words
    y1, y2 = problem.labels
    loose = DTNode(x1, DTNode(y1, LEAF0, DTNode(y2, LEAF1, LEAF1)), tree.high)
    assert not brute_check_classification(loose, problem)
    assert not dt_check_classification(loose, problem)


# ----------------------------------------------------------------------
# deep trees: no operation may run into the recursion limit

DEEP = 100_000


def _deep_pair():
    """Two separately built 1e5-deep chains, equal but for shared leaves."""
    pool = Pool()
    x1, x2 = pool.declare("x1", "x2")
    a, b = LEAF1, DTLeaf(1)
    for i in range(DEEP):
        var = x1 if i % 2 else x2
        a, b = DTNode(var, LEAF0, a), DTNode(var, DTLeaf(0), b)
    return a, b


def test_equality_hash_and_repr_of_a_deep_tree():
    a, b = _deep_pair()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != dt_negate(b)
    text = repr(a)
    assert text == repr(b)
    assert text.count("DTNode(") == DEEP
    assert text.endswith("high=DTLeaf(value=1)" + ")" * DEEP)


def test_tree_helpers_on_a_deep_tree():
    pool = Pool()
    over = pool.declare(*(f"v{i}" for i in range(DEEP)))

    def chain(bottom):
        # (v0 0 (v1 1 (v2 0 ... bottom)))
        tree = bottom
        for i in range(DEEP - 2, -1, -1):
            tree = DTNode(over[i], DTLeaf(i % 2), tree)
        return tree

    tree = chain(DTNode(over[-1], LEAF0, LEAF1))
    assert node_count(tree) == 2 * DEEP + 1
    assert decision_count(tree) == DEEP
    assert is_read_once(tree) and not has_identical_children(tree)
    assert dt_simplify(tree) is tree
    assert _reduce(tree, {over[0]: 1}) is tree.high
    assert node_count(dt_condition(tree, Literal(over[-1], True))) == 2 * DEEP - 1
    assert not is_read_once(chain(DTNode(over[0], LEAF0, LEAF1)))
    twins = chain(DTNode(over[-1], LEAF1, DTLeaf(1)))
    assert has_identical_children(twins)
    assert decision_count(dt_simplify(twins)) == DEEP - 1
    circ = dt_to_circuit(tree, pool)
    rng = random.Random(5)
    for cut in (0, 1, DEEP // 2, DEEP - 1, DEEP):
        # ones down to `cut`, then a zero: the walk leaves the chain at `cut`
        bits = [1] * cut + [0] + [rng.randint(0, 1) for _ in range(DEEP - cut - 1)]
        omega = Assignment(over, bits[:DEEP])
        assert evaluate(circ, omega) == dt_eval(tree, omega)


def test_dt_eval_rejects_a_missing_variable():
    pool = Pool()
    x1, x2 = pool.declare("x1", "x2")
    with pytest.raises(ValueError) as raised:
        dt_eval(DTNode(x2, LEAF0, LEAF1), Assignment((x1,), (1,)))
    assert str(raised.value) == "assignment is not total over the tree's variables (missing x2)"


# ----------------------------------------------------------------------
# Read trees vouch for their variables: the reader records each tree's
# variable set on its root, and `dt_vars` walks only other trees.

WIDE_NAMES = ("x1", "x2", "x3", "x4", "x5")


def _outcome(call):
    try:
        return "ok", call()
    except Exception as error:
        return type(error).__name__, str(error)


@given(
    seed=st.integers(0, 2**32 - 1),
    names=st.lists(st.sampled_from(WIDE_NAMES + ("y",)), min_size=1, max_size=6, unique=True),
    depth=st.integers(0, 6),
)
def test_a_read_tree_records_exactly_its_variables(seed, names, depth):
    pool = Pool()
    pool.declare(*WIDE_NAMES, "y", "z1", "z2")  # wider than any tree drawn
    text = print_dtree(random_tree([pool.var(n) for n in names], random.Random(seed), depth))
    head = f"(features {' '.join(WIDE_NAMES)})", "(labels y)"
    reads = [parse_dtree(text, pool)]
    # every order of the sections, three of which read the tree after the pool is built
    for order in itertools.permutations(head + (f"(tree {text})",)):
        reads.append(parse_tree_file("\n".join(order)).tree)
    for tree in reads:
        assert print_dtree(tree) == text
        if isinstance(tree, DTNode):
            assert type(tree) is _ReadRoot
            assert tree.variables == reference_tree_vars(tree)
        assert dt_vars(tree) == reference_tree_vars(tree)


@pytest.mark.parametrize("text", ["0", "1"])
def test_a_bare_leaf_reads_as_a_leaf_without_variables(text):
    pool = Pool()
    pool.declare("x1", "y")
    leaf = parse_dtree(text, pool)
    assert leaf is (LEAF1 if text == "1" else LEAF0)
    assert dt_vars(leaf) == frozenset()
    for order in itertools.permutations(("(features x1)", "(labels y)", f"(tree {text})")):
        assert parse_tree_file("".join(order)).tree is leaf


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
        sigma = random_tree(problem.all_vars, rng, depth=5)
    else:
        extra = (z1,) if sigma_over == "features and z1" else ()
        sigma = attach_label(random_tree(problem.features + extra, rng, depth=5), problem.label)
    extra = (z1,) if theory_over == "all and z1" else ()
    theory = random_tree(problem.all_vars + extra, rng, depth=5)
    read_sigma = parse_dtree(print_dtree(sigma), pool)
    read_theory = parse_dtree(print_dtree(theory), pool)
    copies = rebuilt_tree(read_sigma), rebuilt_tree(read_theory)
    assert all(type(copy) is not _ReadRoot for copy in copies)
    assert _outcome(lambda: dt_check_classification(read_sigma, problem)) == _outcome(
        lambda: dt_check_classification(copies[0], problem)
    )
    rectified = _outcome(lambda: print_dtree(dt_rectify(read_sigma, read_theory, problem)))
    assert rectified == _outcome(lambda: print_dtree(dt_rectify(*copies, problem)))


def _sized_tree(rng, over, depth, internal, leaf):
    """A random tree with exactly `internal` decisions and depth at most `depth`."""
    if internal == 0:
        return leaf()
    cap = (1 << (depth - 1)) - 1
    low = rng.randint(max(0, internal - 1 - cap), min(cap, internal - 1))
    return DTNode(
        rng.choice(over),
        _sized_tree(rng, over, depth - 1, low, leaf),
        _sized_tree(rng, over, depth - 1, internal - 1 - low, leaf),
    )


def test_a_bench_shaped_read_pair_rectifies_as_its_rebuilt_copy(monkeypatch):
    # the shape of the tree-pipeline benchmark's largest class: 12 features, depth 16-18
    pool = Pool()
    features = pool.declare(*(f"x{i}" for i in range(1, 13)))
    problem = ClassificationProblem(features, pool.declare("y"))
    y = problem.label
    rng = random.Random(12)
    classes = DTNode(y, LEAF1, LEAF0), DTNode(y, LEAF0, LEAF1)
    sigma = _sized_tree(rng, features, 16, 2000, lambda: rng.choice(classes))
    theory = _sized_tree(rng, problem.all_vars, 16, 1000, lambda: rng.choice((LEAF0, LEAF1)))
    assert decision_count(sigma) + decision_count(theory) >= 3000
    head = f"(features {' '.join(v.name for v in features)})\n(labels y)\n"
    read_sigma, read_theory = (
        parse_tree_file(head + f"(tree {print_dtree(tree)})\n").tree for tree in (sigma, theory)
    )
    walks = var_walks(monkeypatch)
    out = print_dtree(dt_rectify(read_sigma, read_theory, problem))
    assert walks == []
    copies = rebuilt_tree(read_sigma), rebuilt_tree(read_theory)
    assert out == print_dtree(dt_rectify(*copies, problem))
    assert len(walks) == 2


SIGMA_OUTSIDE = "^tree mentions variables outside the problem: z1$"
THEORY_OUTSIDE = "^theory tree mentions variables outside the problem: z1$"


def test_trees_built_on_read_trees_are_walked(trees, monkeypatch):
    pool, problem, parse = trees
    (z1,) = pool.declare("z1")
    x1, x3 = pool.var("x1"), pool.var("x3")
    sigma, theory = parse(SIGMA_TREE_TEXT), parse(THEORY_TREE_TEXT)
    walks = var_walks(monkeypatch)
    with pytest.raises(ValueError, match=SIGMA_OUTSIDE):
        dt_rectify(DTNode(z1, sigma, LEAF0), theory, problem)
    with pytest.raises(ValueError, match=SIGMA_OUTSIDE):
        dt_check_classification(DTNode(z1, sigma, LEAF0), problem)
    with pytest.raises(ValueError, match=THEORY_OUTSIDE):
        dt_rectify(sigma, DTNode(z1, theory, LEAF0), problem)
    assert len(walks) == 3

    # a kernel that changes a read tree returns a new root, which is walked
    wide = parse("(x1 (y 0 1) (z1 (y 0 1) (x2 (y 1 0) (y 0 1))))")
    kept_z1 = dt_condition(wide, Literal(x1, True))
    dropped_z1 = dt_condition(wide, Literal(z1, False))
    labelled = attach_label(parse("(x1 0 (z1 1 (x2 0 1)))"), problem.label)
    theory_z1 = dt_condition(parse("(z1 (x1 0 (y 0 1)) 1)"), Literal(x1, False))
    for built in (kept_z1, dropped_z1, labelled, theory_z1):
        assert type(built) is DTNode
        assert dt_vars(built) == reference_tree_vars(built)
    for built in (kept_z1, labelled):
        with pytest.raises(ValueError, match=SIGMA_OUTSIDE):
            dt_check_classification(built, problem)
        with pytest.raises(ValueError, match=SIGMA_OUTSIDE):
            dt_rectify(built, theory, problem)
    with pytest.raises(ValueError, match=THEORY_OUTSIDE):
        dt_rectify(sigma, theory_z1, problem)
    # z1 conditioned away: no stale record of it
    out = print_dtree(dt_rectify(dropped_z1, theory, problem))
    assert out == print_dtree(dt_rectify(rebuilt_tree(dropped_z1), theory, problem))

    # a kernel that changes nothing keeps the read root, whose record still holds
    unchanged = dt_condition(wide, Literal(x3, True))
    assert unchanged is wide
    with pytest.raises(ValueError, match=SIGMA_OUTSIDE):
        dt_check_classification(unchanged, problem)
