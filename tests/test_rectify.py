import random

import pytest
from hypothesis import given, strategies as st

from monorect import (
    Assignment,
    CapExceededError,
    CertificationError,
    Classifier,
    Pool,
    classify,
    classify_batch,
    classify_rectified,
    condition,
    conjoin,
    decisive_circuits,
    equivalent,
    evaluate,
    is_fact_compliant,
    models,
    oracle_rectify,
    positive_circuit,
    preprocess_project,
    rectify,
)
from monorect.randgen import random_classifier, random_problem, random_theory

from conftest import desk_pairs, to_term


@pytest.fixture
def demo_result(demo):
    clf = Classifier(demo.problem, demo.sigma)
    return clf, rectify(clf, demo.theory)


class TestDecisiveCircuits:
    def test_demo_shapes(self, demo):
        forces_pos, forces_neg = decisive_circuits(demo.theory, demo.problem)
        pos_expected = demo.pool.build(
            ["and", "x2", ["not", ["or", ["not", "x1"], "x3"]]]
        )
        neg_expected = demo.pool.build(
            ["and", ["or", ["not", "x1"], "x3"], ["not", "x2"]]
        )
        assert equivalent(forces_pos, pos_expected)
        assert equivalent(forces_neg, neg_expected)

    def test_demo_highlighted_instance(self, demo):
        forces_pos, _ = decisive_circuits(demo.theory, demo.problem)
        inst = Assignment.from_word("110", demo.problem.features)
        assert evaluate(forces_pos, inst) == 1

    def test_contradictory_theory_forces_nothing(self, demo):
        absurd = demo.pool.const(0)
        forces_pos, forces_neg = decisive_circuits(absurd, demo.problem)
        assert not models(forces_pos, demo.problem.features)
        assert not models(forces_neg, demo.problem.features)


class TestRectify:
    def test_demo_accepted_region(self, demo_result, demo):
        _, result = demo_result
        assert equivalent(result.positive, demo.pool.build(["and", "x1", "x2"]))

    def test_contradictory_theory_changes_nothing(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        absurd = demo.pool.build(["and", "x1", ["not", "x1"]])
        result = rectify(clf, absurd)
        assert equivalent(result.positive, positive_circuit(clf))
        assert equivalent(result.rectified.circuit, clf.circuit)

    def test_tautological_theory_changes_nothing(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        result = rectify(clf, demo.pool.const(1))
        assert equivalent(result.positive, positive_circuit(clf))

    def test_rejects_uncertified_and_multilabel(self, demo, twolabel):
        # no Classifier holds an uncertified circuit, so none reaches rectify
        with pytest.raises(CertificationError):
            Classifier(twolabel.problem, twolabel.theory)
        good = Classifier(twolabel.problem, twolabel.sigma)
        with pytest.raises(ValueError, match="single-label"):
            rectify(good, twolabel.theory)

    def test_rejects_unprojected_extras(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        (aux,) = demo.pool.declare("helper")
        noisy = conjoin(demo.theory, demo.pool.literal(aux))
        with pytest.raises(ValueError, match="preprocess_project"):
            rectify(clf, noisy)


class TestPreprocessProject:
    def test_identity_without_extras(self, demo):
        assert preprocess_project(demo.theory, demo.problem) == demo.theory

    def test_tautological_conjunct_vanishes(self, demo):
        (aux,) = demo.pool.declare("spare")
        noisy = conjoin(
            demo.theory,
            demo.pool.build(["or", "spare", ["not", "spare"]]),
        )
        projected = preprocess_project(noisy, demo.problem)
        assert projected.vars() <= set(demo.problem.all_vars)
        assert equivalent(projected, demo.theory)

    def test_defined_auxiliary_vanishes(self, demo):
        (aux,) = demo.pool.declare("alias")
        linked = demo.pool.build(
            [
                "and",
                ["iff", "alias", "x2"],
                ["imp", ["and", "x1", ["not", "x3"]], "y"],
                ["imp", ["not", "alias"], ["not", "y"]],
            ]
        )
        projected = preprocess_project(linked, demo.problem)
        assert equivalent(projected, demo.theory)

    def test_forgetting_cap(self, demo):
        extras = demo.pool.declare(*(f"e{i}" for i in range(9)))
        noisy = demo.theory
        for v in extras:
            noisy = conjoin(noisy, demo.pool.build(["or", v.name, ["not", v.name]]))
        with pytest.raises(CapExceededError):
            preprocess_project(noisy, demo.problem)

    def test_rectify_with_projection(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        baseline = rectify(clf, demo.theory)
        (aux,) = demo.pool.declare("scratch")
        noisy = conjoin(
            demo.theory, demo.pool.build(["or", "scratch", ["not", "scratch"]])
        )
        projected = rectify(clf, preprocess_project(noisy, demo.problem))
        assert equivalent(projected.positive, baseline.positive)


class TestClassifyRectified:
    @pytest.mark.parametrize(
        "word,expected", [("110", 1), ("101", 0), ("000", 0), ("111", 1)]
    )
    def test_demo_rows(self, demo_result, word, expected):
        _, result = demo_result
        assert classify_rectified(result, word) == expected


DEMO_VERDICTS = {
    "000": (1, 0), "001": (1, 0), "010": (0, 0), "011": (0, 0),
    "100": (0, 0), "101": (1, 0), "110": (0, 1), "111": (1, 1),
}


class TestClassifyBatch:
    def test_demo_words(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        words = list(DEMO_VERDICTS)
        assert classify_batch(clf, demo.theory, words) == list(DEMO_VERDICTS.values())

    def test_order_duplicates_and_empty(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        words = ["110", "000", "110", "111", "000"]
        assert classify_batch(clf, demo.theory, words) == [DEMO_VERDICTS[w] for w in words]
        assert classify_batch(clf, demo.theory, []) == []

    def test_instance_forms(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        inst = Assignment.from_word("110", demo.problem.features)
        assert classify_batch(clf, demo.theory, [inst, to_term(inst), (1, 1, 0)]) == [(0, 1)] * 3

    def test_adds_no_gate(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        before = len(demo.pool.gates)
        classify_batch(clf, demo.theory, list(DEMO_VERDICTS))
        assert len(demo.pool.gates) == before

    def test_rejections_match_rectify(self, demo, twolabel):
        # the problem's checks come before any instance is read
        (aux,) = demo.pool.declare("helper")
        cases = [
            (Classifier(twolabel.problem, twolabel.sigma), twolabel.theory),
            (Classifier(demo.problem, demo.sigma), conjoin(demo.theory, demo.pool.literal(aux))),
        ]
        for clf, theory in cases:
            with pytest.raises(Exception) as batch:
                classify_batch(clf, theory, ["not a word"])
            with pytest.raises(Exception) as whole:
                rectify(clf, theory)
            assert (type(batch.value), str(batch.value)) == (type(whole.value), str(whole.value))

    def test_bad_word_is_rejected(self, demo):
        clf = Classifier(demo.problem, demo.sigma)
        with pytest.raises(ValueError, match="3 characters"):
            classify_batch(clf, demo.theory, ["110", "11"])


def _words(problem):
    n = len(problem.features)
    return [format(i, f"0{n}b") for i in range(1 << n)]


@given(pair=desk_pairs())
def test_classify_batch_matches_the_construction_and_the_oracle(pair):
    pool, problem, clf, theory = pair
    words = _words(problem)
    gates = len(pool.gates)
    got = classify_batch(clf, theory, words)
    assert len(pool.gates) == gates
    result = rectify(clf, theory)
    assert got == [(classify(clf, w).bits[0], classify_rectified(result, w)) for w in words]
    # 2-bit blocks: bit 1 is the positive label
    assert [after for _, after in got] == [b >> 1 for b in oracle_rectify(clf, theory)]


@given(pair=desk_pairs(), data=st.data())
def test_a_batch_equals_its_singletons(pair, data):
    _, problem, clf, theory = pair
    words = data.draw(st.lists(st.sampled_from(_words(problem)), max_size=12))
    singles = [classify_batch(clf, theory, [w])[0] for w in words]
    assert classify_batch(clf, theory, words) == singles


def _random_pair(seed, n_features=4, gates=25):
    rng = random.Random(seed)
    pool = Pool()
    problem = random_problem(pool, n_features)
    clf = random_classifier(pool, problem, gates, rng)
    theory = random_theory(pool, problem, gates, rng)
    return pool, problem, clf, theory


@pytest.mark.parametrize("seed", range(40))
def test_semantic_characterization(seed):
    # accepted exactly when (previously accepted and not forced negative)
    # or forced positive
    pool, problem, clf, theory = _random_pair(seed)
    result = rectify(clf, theory)
    region = positive_circuit(clf)
    for i in range(1 << len(problem.features)):
        inst = Assignment.from_index(i, problem.features)
        was = evaluate(region, inst) == 1
        f_pos = evaluate(result.forces_positive, inst) == 1
        f_neg = evaluate(result.forces_negative, inst) == 1
        assert (classify_rectified(result, inst) == 1) == ((was and not f_neg) or f_pos)


@pytest.mark.parametrize("seed", range(40))
def test_forced_regions_are_disjoint(seed):
    pool, problem, clf, theory = _random_pair(seed)
    result = rectify(clf, theory)
    assert not models(conjoin(result.forces_positive, result.forces_negative), problem.features)


@pytest.mark.parametrize("seed", range(25))
def test_rectification_is_a_fixpoint(seed):
    pool, problem, clf, theory = _random_pair(seed)
    first = rectify(clf, theory)
    second = rectify(first.rectified, theory)
    assert equivalent(second.positive, first.positive)


@pytest.mark.parametrize("seed", range(25))
def test_knowledge_compliance(seed):
    # wherever the theory is satisfiable, the rectified verdict entails it
    pool, problem, clf, theory = _random_pair(seed)
    result = rectify(clf, theory)
    for i in range(1 << len(problem.features)):
        inst = Assignment.from_index(i, problem.features)
        at_x = condition(theory, to_term(inst))
        if not models(at_x, problem.labels):
            continue
        verdict = condition(result.rectified.circuit, to_term(inst))
        assert equivalent(conjoin(verdict, at_x), verdict)
        assert is_fact_compliant(result.rectified, theory, inst)


@pytest.mark.parametrize("seed", range(50))
def test_size_stays_linear(seed):
    pool, problem, clf, theory = _random_pair(seed, n_features=5, gates=35)
    result = rectify(clf, theory)
    region = positive_circuit(clf)
    assert result.positive.size <= region.size + 2 * theory.size + 16
    assert result.rectified.circuit.size <= clf.circuit.size + 2 * theory.size + 16
