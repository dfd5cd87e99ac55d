import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from monorect import (
    Assignment,
    CapExceededError,
    CertificationError,
    ClassificationProblem,
    Classifier,
    Literal,
    Pool,
    Term,
    as_instance,
    check_xy_property,
    classify,
    classify_rectified,
    condition,
    conjoin,
    disjoin,
    equivalent,
    fact_formula,
    is_fact_compliant,
    label_blocks,
    negate,
    positive_circuit,
    rectify,
    truth_mask,
)
from monorect.classifier import one_label_per_instance
from monorect.randgen import random_circuit, random_problem, random_theory
from monorect.verify import _forced_masks

from conftest import ast_exprs, gate_count, to_term


class TestProblem:
    def test_rejects_overlap_and_empties(self):
        pool = Pool()
        x, y = pool.declare("x", "y")
        with pytest.raises(ValueError):
            ClassificationProblem((), (y,))
        with pytest.raises(ValueError):
            ClassificationProblem((x,), ())
        with pytest.raises(ValueError):
            ClassificationProblem((x, y), (y,))

    @pytest.mark.parametrize(
        "features, labels",
        [(("x1",), ("x1",)), (("x1", "x1"), ("y",)), (("x1",), ("y", "y"))],
        ids=["overlap", "repeated-feature", "repeated-label"],
    )
    def test_each_variable_is_listed_once(self, features, labels):
        pool = Pool()
        pool.declare("x1", "y")
        with pytest.raises(ValueError, match="^features and labels must be distinct variables$"):
            ClassificationProblem(tuple(map(pool.var, features)), tuple(map(pool.var, labels)))

    def test_label_accessor(self):
        pool = Pool()
        x, y1, y2 = pool.declare("x", "y1", "y2")
        assert ClassificationProblem((x,), (y1,)).label == y1
        with pytest.raises(ValueError):
            ClassificationProblem((x,), (y1, y2)).label


class TestCheckXYProperty:
    def test_two_label_classifier_passes(self, twolabel):
        assert check_xy_property(twolabel.sigma, twolabel.problem)

    def test_two_label_theory_fails(self, twolabel):
        assert not check_xy_property(twolabel.theory, twolabel.problem)

    def test_tautology_fails(self):
        pool = Pool()
        (x,) = pool.declare("x")
        (y,) = pool.declare("y")
        problem = ClassificationProblem((x,), (y,))
        assert not check_xy_property(pool.const(1), problem)


class TestConstructorErrorOrder:
    def test_outside_variable_before_the_cap(self, demo):
        # a problem file declares only the problem's variables; a library pool may hold more
        (z,) = demo.pool.declare("z")
        sigma = demo.pool.build(["iff", ["and", "x1", "z"], "y"])
        with pytest.raises(ValueError, match=r"outside features and labels \(z\)"):
            Classifier(demo.problem, sigma, cap=1)

    def test_cap_before_certification(self, demo):
        with pytest.raises(CapExceededError):
            Classifier(demo.problem, demo.pool.const(1), cap=1)

    @pytest.mark.parametrize(
        "what, read",
        [
            ("classifier circuit", lambda problem, circ: Classifier(problem, circ, cap=1)),
            ("classifier circuit", lambda problem, circ: check_xy_property(circ, problem, cap=1)),
            ("circuit", lambda problem, circ: label_blocks(circ, problem, cap=1)),
        ],
        ids=["Classifier", "check_xy_property", "label_blocks"],
    )
    def test_every_full_table_checks_variables_before_the_cap(self, demo, what, read):
        # one guard order for certification and the full label table: variables, cap, table
        (z,) = demo.pool.declare("z")
        sigma = demo.pool.build(["iff", ["and", "x1", "z"], "y"])
        message = f"{what} mentions variables outside features and labels (z); forget them first"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read(demo.problem, sigma)


def _problem(n_features, n_labels):
    pool = Pool()
    names = [f"x{i}" for i in range(n_features)] + [f"y{i}" for i in range(n_labels)]
    found = pool.declare(*names)
    return ClassificationProblem(found[:n_features], found[n_features:])


def per_block_reference(table, problem):
    """Each instance's block of 2**len(labels) bits holds exactly one set bit."""
    width = 1 << len(problem.labels)
    block = (1 << width) - 1
    blocks = range(1 << len(problem.features))
    return all((table >> x * width & block).bit_count() == 1 for x in blocks)


class TestOneLabelPerInstance:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1)])
    def test_every_table_up_to_8_bits(self, shape):
        problem = _problem(*shape)
        for table in range(1 << (1 << sum(shape))):
            assert one_label_per_instance(table, problem) == per_block_reference(table, problem)

    @given(data=st.data(), n_features=st.integers(1, 4), n_labels=st.integers(1, 5))
    def test_matches_the_per_block_reference(self, data, n_features, n_labels):
        problem = _problem(n_features, n_labels)
        width, bits = 1 << n_labels, 1 << (n_features + n_labels)
        if data.draw(st.booleans()):
            table = data.draw(st.integers(0, (1 << bits) - 1))
        else:  # one label per instance, then a few bits flipped
            table = sum(
                1 << x * width + data.draw(st.integers(0, width - 1))
                for x in range(1 << n_features)
            )
            for bit in data.draw(st.lists(st.integers(0, bits - 1), max_size=3)):
                table ^= 1 << bit
        assert one_label_per_instance(table, problem) == per_block_reference(table, problem)

    @given(data=st.data(), n_features=st.integers(1, 4), n_labels=st.integers(1, 5))
    def test_an_emptied_block_and_a_doubled_one_fail(self, data, n_features, n_labels):
        problem = _problem(n_features, n_labels)
        n_blocks, width = 1 << n_features, 1 << n_labels
        verdicts = [data.draw(st.integers(0, width - 1)) for _ in range(n_blocks)]
        table = sum(1 << x * width + b for x, b in enumerate(verdicts))
        assert one_label_per_instance(table, problem)
        emptied, doubled = data.draw(
            st.lists(st.integers(0, n_blocks - 1), min_size=2, max_size=2, unique=True)
        )
        extra = data.draw(st.integers(0, width - 1).filter(lambda b: b != verdicts[doubled]))
        table ^= 1 << emptied * width + verdicts[emptied]
        table |= 1 << doubled * width + extra
        assert table.bit_count() == n_blocks
        assert not one_label_per_instance(table, problem)


class TestClassify:
    def test_demo_words(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        assert classify(clf, "110").word == "0"
        assert classify(clf, "000").word == "1"

    def test_two_label_instance(self, twolabel):
        clf = Classifier(twolabel.problem, twolabel.sigma)
        verdict = classify(clf, "10")
        assert verdict.word == "10"

    def test_repr_counts_features_and_labels(self, demo, twolabel):
        assert repr(Classifier(demo.problem, demo.sigma)) == "<Classifier 3+1 vars>"
        assert repr(Classifier(twolabel.problem, twolabel.sigma)) == "<Classifier 2+2 vars>"

    def test_uncertified_rejected(self, twolabel):
        with pytest.raises(CertificationError, match="^sigma is not a classification circuit: "):
            Classifier(twolabel.problem, twolabel.theory)

    def test_instance_forms_agree(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        x1, x2, x3 = demo.problem.features
        term = Term([Literal(x1), Literal(x2), Literal(x3, False)])
        word = as_instance(demo.problem, "110")
        assert as_instance(demo.problem, term) == word
        assert as_instance(demo.problem, (1, 1, 0)) == word
        assert classify(clf, term) == classify(clf, "110")

    @pytest.mark.parametrize("bits", [(0.7, 1, 0), ("1", "1", "0"), (2, 1, 0)])
    def test_instance_bits_are_not_truncated(self, demo, bits):
        with pytest.raises(ValueError, match="ints 0 or 1"):
            as_instance(demo.problem, bits)


class TestFactFormula:
    def test_demo_rows(self, demo):
        contradictory = fact_formula(demo.theory, "100", demo.problem)
        assert not contradictory
        forced = fact_formula(demo.theory, "110", demo.problem)
        (lit,) = forced.literals
        assert lit.positive and lit.var == demo.problem.label

    def test_two_label_rows(self, twolabel):
        y1, y2 = twolabel.problem.labels
        both = fact_formula(twolabel.theory, "11", twolabel.problem)
        assert both == Term([Literal(y1), Literal(y2)])
        assert not fact_formula(twolabel.theory, "10", twolabel.problem)
        second_out = fact_formula(twolabel.theory, "01", twolabel.problem)
        assert second_out == Term([Literal(y2, False)])
        assert not fact_formula(twolabel.theory, "00", twolabel.problem)

    def test_theory_outside_the_problem_is_rejected_at_every_instance(self, twolabel):
        twolabel.pool.declare("z")
        theory = twolabel.pool.build(["and", "x1", "z"])
        for word in ("00", "01", "10", "11"):
            with pytest.raises(ValueError, match=r"outside features and labels \(z\)"):
                fact_formula(theory, word, twolabel.problem)


class TestFactCompliance:
    def test_two_label_exceptions(self, twolabel):
        clf = Classifier(twolabel.problem, twolabel.sigma)
        for word in ("00", "10", "11"):
            assert is_fact_compliant(clf, twolabel.theory, word)
        assert not is_fact_compliant(clf, twolabel.theory, "01")

    def test_contradictory_theory_complies(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        absurd = demo.pool.build(["and", "x1", ["not", "x1"]])
        for i in range(8):
            inst = Assignment.from_index(i, demo.problem.features)
            assert is_fact_compliant(clf, absurd, inst)


class TestPositiveCircuit:
    def test_demo_region(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        region = positive_circuit(clf)
        expected = demo.pool.build(
            ["or", ["and", ["not", "x1"], ["not", "x2"]], ["and", "x1", "x3"]]
        )
        assert equivalent(region, expected)

    def test_always_negative(self):
        pool = Pool()
        (x,) = pool.declare("x")
        (y,) = pool.declare("y")
        problem = ClassificationProblem((x,), (y,))
        clf = Classifier(problem, pool.build(["iff", "false", "y"]))
        assert check_xy_property(clf.circuit, clf.problem)
        assert truth_mask(positive_circuit(clf), (x,)) == 0

    def test_round_trip(self, demo):
        region = demo.pool.build(["or", "x1", ["and", "x2", "x3"]])
        clf = Classifier(demo.problem, demo.pool.build(["iff", ["or", "x1", ["and", "x2", "x3"]], "y"]))
        assert equivalent(positive_circuit(clf), region)

    def test_from_positive_circuit_matches_plain_build(self, demo):
        region = demo.pool.build(["or", "x1", ["and", "x2", "x3"]])
        trusted = Classifier.from_positive_circuit(demo.problem, region)
        assert check_xy_property(trusted.circuit, demo.problem)
        assert equivalent(positive_circuit(trusted), region)


XNAMES = ("x1", "x2")
YNAMES = ("y1", "y2")


def _two_label_setting(theory_ast):
    pool = Pool()
    features = pool.declare(*XNAMES)
    labels = pool.declare(*YNAMES)
    problem = ClassificationProblem(features, labels)
    return pool, problem, pool.build(theory_ast)


@given(theory_ast=ast_exprs(XNAMES + YNAMES, max_leaves=10))
def test_theory_entails_its_fact_formula(theory_ast):
    pool, problem, theory = _two_label_setting(theory_ast)
    for bits in itertools.product((0, 1), repeat=2):
        inst = Assignment(problem.features, bits)
        at_x = condition(theory, to_term(inst))
        facts = fact_formula(theory, inst, problem)
        forced = [pool.literal(lit.var, lit.positive) for lit in facts.literals]
        implied = pool.and_([pool.const(1), *forced])
        over = pool.variables
        assert truth_mask(at_x, over) & ~truth_mask(implied, over) == 0


@given(theory_ast=ast_exprs(("x1", "x2", "y"), max_leaves=10))
def test_single_label_trichotomy(theory_ast):
    pool = Pool()
    features = pool.declare("x1", "x2")
    (label,) = pool.declare("y")
    problem = ClassificationProblem(features, (label,))
    theory = pool.build(theory_ast)
    shapes = (
        pool.literal(label),
        pool.literal(label, False),
        pool.const(1),
        pool.const(0),
    )
    for bits in itertools.product((0, 1), repeat=2):
        at_x = condition(theory, to_term(Assignment(features, bits)))
        assert sum(equivalent(at_x, shape) for shape in shapes) == 1


@given(region_ast=ast_exprs(("x1", "x2", "x3"), max_leaves=10))
@settings(max_examples=60)
def test_certified_classifiers_classify_every_instance(region_ast):
    pool = Pool()
    features = pool.declare("x1", "x2", "x3")
    (label,) = pool.declare("y")
    problem = ClassificationProblem(features, (label,))
    clf = Classifier.from_positive_circuit(problem, pool.build(region_ast))
    for i in range(8):
        verdict = classify(clf, Assignment.from_index(i, features))
        assert verdict.word in ("0", "1")


@given(
    seed=st.integers(0, 2**32 - 1),
    n_features=st.integers(1, 5),
    shape=st.sampled_from(["random", "iff", "iff or random", "iff and random"]),
)
@settings(max_examples=120)
def test_a_classifier_is_a_classification_circuit(seed, n_features, shape):
    rng = random.Random(seed)
    pool = Pool()
    problem = random_problem(pool, n_features)
    noise = random_circuit(pool, problem.all_vars, rng.randint(1, 30), rng)
    region = random_circuit(pool, problem.features, rng.randint(1, 30), rng)
    y = pool.literal(problem.label)
    iff = disjoin(conjoin(region, y), conjoin(negate(region), negate(y)))
    circ = {
        "random": noise,
        "iff": iff,
        "iff or random": disjoin(iff, noise),
        "iff and random": conjoin(iff, noise),
    }[shape]
    if check_xy_property(circ, problem):
        assert Classifier(problem, circ).circuit == circ
    else:
        with pytest.raises(CertificationError):
            Classifier(problem, circ)
    trusted = Classifier.from_positive_circuit(problem, region)
    rectified = rectify(trusted, random_theory(pool, problem, rng.randint(1, 30), rng)).rectified
    for clf in (trusted, rectified):
        assert check_xy_property(clf.circuit, clf.problem)


def _multilabel_setting(data, n_features, n_labels):
    """A classifier whose labels each follow a feature region, and a random theory."""
    pool = Pool()
    features = pool.declare(*(f"x{i + 1}" for i in range(n_features)))
    labels = pool.declare(*(f"y{j + 1}" for j in range(n_labels)))
    names = [v.name for v in features + labels]
    problem = ClassificationProblem(features, labels)
    # each label follows its own feature region: a classification circuit
    regions = [
        pool.build(data.draw(ast_exprs(names[:n_features], max_leaves=6)))
        for _ in labels
    ]
    clf = Classifier(
        problem, pool.and_(pool.decision(y, negate(r), r) for y, r in zip(labels, regions))
    )
    return problem, clf, pool.build(data.draw(ast_exprs(names, max_leaves=10)))


@given(data=st.data(), n_features=st.integers(1, 3), n_labels=st.integers(1, 4))
@settings(max_examples=80)
def test_label_blocks_agree_with_the_per_instance_path(data, n_features, n_labels):
    # 1 label gives 2-bit blocks, 2 labels 4-bit, 3 labels 8-bit, 4 labels 16-bit
    problem, clf, theory = _multilabel_setting(data, n_features, n_labels)
    features, labels = problem.features, problem.labels
    sigma = label_blocks(clf.circuit, problem)
    allowed = label_blocks(theory, problem)
    forced = _forced_masks(allowed, problem)
    assert len(sigma) == len(allowed) == len(forced) == 1 << n_features
    for x in range(1 << n_features):
        inst = Assignment.from_index(x, features)
        assert sigma[x] == 1 << int(classify(clf, inst).word, 2)
        assert allowed[x] == truth_mask(condition(theory, to_term(inst)), labels)
        assert (sigma[x] & ~forced[x] == 0) == is_fact_compliant(clf, theory, inst)


@given(data=st.data(), n_features=st.integers(1, 3), n_labels=st.integers(1, 4))
@settings(max_examples=80)
def test_forced_literals_hold_in_every_model_at_the_instance(data, n_features, n_labels):
    # the reference enumerates the theory's label models at each instance,
    # independently of the forced-facts kernel
    problem, clf, theory = _multilabel_setting(data, n_features, n_labels)
    for x in range(1 << n_features):
        inst = Assignment.from_index(x, problem.features)
        table = truth_mask(condition(theory, to_term(inst)), problem.labels)
        words = (k for k in range(1 << n_labels) if table >> k & 1)
        allowed = [Assignment.from_index(k, problem.labels) for k in words]
        values = {y: {m.value(y) for m in allowed} for y in problem.labels}
        forced = [Literal(y, 1 in vs) for y, vs in values.items() if len(vs) == 1]
        assert fact_formula(theory, inst, problem) == Term(forced)
        verdict = classify(clf, inst)
        compliant = all(verdict.value(lit.var) == lit.positive for lit in forced)
        assert is_fact_compliant(clf, theory, inst) is compliant


@given(data=st.data(), n_features=st.integers(1, 3), n_labels=st.integers(1, 4))
@settings(max_examples=80)
def test_listed_instances_read_the_same_blocks(data, n_features, n_labels):
    # 2/4-bit blocks take the byte-splitting path, 8/16-bit the span path;
    # 5 instances at 2-bit blocks fill 10 bits, so the byte count rounds up
    problem, clf, theory = _multilabel_setting(data, n_features, n_labels)
    picks = data.draw(st.lists(st.integers(0, (1 << n_features) - 1), max_size=9))
    words = [format(x, f"0{n_features}b") for x in picks]
    for circ in (clf.circuit, theory):
        every = label_blocks(circ, problem)
        assert label_blocks(circ, problem, words) == [every[x] for x in picks]


def test_label_blocks_check_cap_and_variables(demo):
    with pytest.raises(CapExceededError):
        label_blocks(demo.sigma, demo.problem, cap=3)
    stray = demo.pool.declare("z1")[0]
    with pytest.raises(ValueError, match=r"outside features and labels \(z1\)"):
        label_blocks(demo.pool.literal(stray), demo.problem)


@pytest.mark.parametrize("setting", ["demo", "twolabel"])
def test_instance_queries_build_no_gates(request, setting):
    fx = request.getfixturevalue(setting)
    clf = Classifier(fx.problem, fx.sigma)
    queries = [
        lambda x: classify(clf, x),
        lambda x: fact_formula(fx.theory, x, fx.problem),
        lambda x: is_fact_compliant(clf, fx.theory, x),
    ]
    if fx.problem.mono_label:
        result = rectify(clf, fx.theory)
        queries.append(lambda x: classify_rectified(result, x))
    gates = gate_count(fx.pool)
    for i in range(1 << len(fx.problem.features)):
        inst = Assignment.from_index(i, fx.problem.features)
        for query in queries:
            query(inst)
        assert gate_count(fx.pool) == gates, f"the pool grew at instance {inst.word}"


class TestAsInstance:
    @pytest.fixture
    def problem(self):
        pool = Pool()
        return ClassificationProblem(pool.declare("x1", "x2", "x3"), pool.declare("y"))

    def test_a_reordered_assignment_is_accepted(self, problem):
        x1, x2, x3 = problem.features
        omega = as_instance(problem, Assignment((x3, x1, x2), (1, 0, 1)))
        assert (omega.vars, omega.word) == (problem.features, "011")

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda p: Assignment((*p.features[:2], p.label), (1, 0, 1)), ValueError,
             "instance assignment must cover exactly the features"),
            (lambda p: Term([Literal(p.features[0], True)]), ValueError,
             "instance term must mention every feature exactly once"),
            (lambda p: 1.5, TypeError, "cannot interpret float as an instance"),
        ],
        ids=["other-variables", "partial-term", "float"],
    )
    def test_rejected_instances(self, problem, make, error, message):
        with pytest.raises(error) as raised:
            as_instance(problem, make(problem))
        assert str(raised.value) == message
